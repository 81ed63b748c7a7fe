#include "src/apps/fdr/fdr_report.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace fdrtool {

// --- JSON reader -------------------------------------------------------------

const Json* Json::Get(const std::string& key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [k, v] : obj) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

int64_t Json::Int(const std::string& key, int64_t def) const {
  const Json* v = Get(key);
  return v != nullptr && v->kind == Kind::kNumber ? static_cast<int64_t>(v->num) : def;
}

std::string Json::Str(const std::string& key, const std::string& def) const {
  const Json* v = Get(key);
  return v != nullptr && v->kind == Kind::kString ? v->str : def;
}

bool Json::Bool(const std::string& key, bool def) const {
  const Json* v = Get(key);
  return v != nullptr && v->kind == Kind::kBool ? v->b : def;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error) : text_(text), error_(error) {}

  bool Parse(Json* out) {
    SkipWs();
    if (!Value(out)) {
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing characters");
    }
    return true;
  }

 private:
  bool Fail(const std::string& what) {
    if (error_ != nullptr) {
      *error_ = what + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* lit) {
    const size_t len = std::string(lit).size();
    if (text_.compare(pos_, len, lit) != 0) {
      return Fail(std::string("expected '") + lit + "'");
    }
    pos_ += len;
    return true;
  }

  bool String(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail("expected string");
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        return Fail("truncated escape");
      }
      char e = text_[pos_++];
      switch (e) {
        case '"':  out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/':  out->push_back('/'); break;
        case 'n':  out->push_back('\n'); break;
        case 't':  out->push_back('\t'); break;
        case 'r':  out->push_back('\r'); break;
        case 'b':  out->push_back('\b'); break;
        case 'f':  out->push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape");
            }
          }
          // Dumps only escape control characters, so a one-byte decode
          // suffices (other code points pass through as UTF-8 already).
          out->push_back(static_cast<char>(code & 0xff));
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    if (pos_ >= text_.size()) {
      return Fail("unterminated string");
    }
    ++pos_;  // closing quote
    return true;
  }

  bool Value(Json* out) {
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    const char c = text_[pos_];
    if (c == '{') {
      out->kind = Json::Kind::kObject;
      ++pos_;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipWs();
        std::string key;
        if (!String(&key)) {
          return false;
        }
        SkipWs();
        if (!Literal(":")) {
          return false;
        }
        SkipWs();
        Json value;
        if (!Value(&value)) {
          return false;
        }
        out->obj.emplace_back(std::move(key), std::move(value));
        SkipWs();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        return Literal("}");
      }
    }
    if (c == '[') {
      out->kind = Json::Kind::kArray;
      ++pos_;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipWs();
        Json value;
        if (!Value(&value)) {
          return false;
        }
        out->arr.push_back(std::move(value));
        SkipWs();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        return Literal("]");
      }
    }
    if (c == '"') {
      out->kind = Json::Kind::kString;
      return String(&out->str);
    }
    if (c == 't') {
      out->kind = Json::Kind::kBool;
      out->b = true;
      return Literal("true");
    }
    if (c == 'f') {
      out->kind = Json::Kind::kBool;
      out->b = false;
      return Literal("false");
    }
    if (c == 'n') {
      out->kind = Json::Kind::kNull;
      return Literal("null");
    }
    // Number.
    size_t end = pos_;
    while (end < text_.size() &&
           (text_[end] == '-' || text_[end] == '+' || text_[end] == '.' ||
            text_[end] == 'e' || text_[end] == 'E' ||
            (text_[end] >= '0' && text_[end] <= '9'))) {
      ++end;
    }
    if (end == pos_) {
      return Fail("unexpected character");
    }
    out->kind = Json::Kind::kNumber;
    out->num = std::stod(text_.substr(pos_, end - pos_));
    pos_ = end;
    return true;
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
};

// --- Report ------------------------------------------------------------------

std::string Ms(int64_t ns) {
  // Fixed 3-decimal milliseconds without locale-dependent formatting.
  const bool neg = ns < 0;
  const int64_t abs_ns = neg ? -ns : ns;
  const int64_t whole = abs_ns / 1000000;
  const int64_t frac = (abs_ns % 1000000) / 1000;
  std::string f = std::to_string(frac);
  while (f.size() < 3) {
    f.insert(f.begin(), '0');
  }
  return (neg ? "-" : "") + std::to_string(whole) + "." + f + " ms";
}

const Json* FindBy(const Json* array, const std::string& key, int64_t value) {
  if (array == nullptr || array->kind != Json::Kind::kArray) {
    return nullptr;
  }
  for (const Json& e : array->arr) {
    if (e.Int(key, value - 1) == value) {
      return &e;
    }
  }
  return nullptr;
}

std::string ThreadLabel(const Json* threads, int64_t tid) {
  const Json* t = FindBy(threads, "thread", tid);
  if (t == nullptr) {
    return "thread " + std::to_string(tid);
  }
  const std::string name = t->Str("name");
  return "thread " + std::to_string(tid) + (name.empty() ? "" : " (" + name + ")");
}

// One timeline line: every member except the envelope keys, in dump order.
void RenderEventLine(const Json& e, std::ostream& out) {
  out << "  [" << Ms(e.Int("t")) << "] n" << e.Int("node") << " " << e.Str("type");
  for (const auto& [k, v] : e.obj) {
    if (k == "seq" || k == "t" || k == "node" || k == "type") {
      continue;
    }
    out << " " << k << "=";
    switch (v.kind) {
      case Json::Kind::kString: out << v.str; break;
      case Json::Kind::kBool:   out << (v.b ? "true" : "false"); break;
      case Json::Kind::kNumber: out << static_cast<int64_t>(v.num); break;
      default:                  out << "?"; break;
    }
  }
  out << "\n";
}

void RenderCausalChain(const Json& dump, std::ostream& out) {
  const Json* threads = dump.Get("threads");
  const Json* locks = dump.Get("locks");
  const Json* rpcs = dump.Get("rpcs_in_flight");
  int64_t tid = dump.Int("dying_thread");
  out << "Causal chain from the dying thread:\n";
  if (tid == 0 && FindBy(threads, "thread", 0) == nullptr) {
    out << "  (death outside any simulated thread — event or host context)\n";
    return;
  }
  std::set<int64_t> visited;
  for (int depth = 0; depth < 32; ++depth) {
    if (!visited.insert(tid).second) {
      out << "  ** cycle: " << ThreadLabel(threads, tid)
          << " reached again — lock-wait deadlock **\n";
      return;
    }
    const Json* t = FindBy(threads, "thread", tid);
    if (t == nullptr) {
      out << "  " << ThreadLabel(threads, tid) << ": no recorded state\n";
      return;
    }
    out << "  " << ThreadLabel(threads, tid) << " on n" << t->Int("node") << " is "
        << t->Str("status") << " (since " << Ms(t->Int("since_ns")) << ")";
    const Json* held = t->Get("held_locks");
    if (held != nullptr && !held->arr.empty()) {
      out << ", holding lock";
      for (size_t i = 0; i < held->arr.size(); ++i) {
        out << (i == 0 ? " " : ", ") << static_cast<int64_t>(held->arr[i].num);
      }
    }
    out << "\n";
    if (t->Str("status") != "blocked") {
      return;
    }
    const std::string wait = t->Str("wait");
    if (wait == "lock") {
      const int64_t lock = t->Int("wait_arg");
      const Json* l = FindBy(locks, "lock", lock);
      const int64_t holder = l != nullptr ? l->Int("holder") : 0;
      out << "    └ waits on lock " << lock;
      if (holder == 0) {
        out << " (no recorded holder)\n";
        return;
      }
      out << ", held by " << ThreadLabel(threads, holder) << "\n";
      tid = holder;
      continue;
    }
    if (wait == "rpc") {
      const int64_t id = t->Int("wait_arg");
      out << "    └ waits on rpc " << id << " to n" << t->Int("wait_node");
      const Json* r = FindBy(rpcs, "id", id);
      if (r != nullptr) {
        out << " (departed " << Ms(r->Int("depart_ns")) << ", " << r->Int("attempts")
            << " transmission" << (r->Int("attempts") == 1 ? "" : "s") << ")";
      }
      out << "\n";
      return;
    }
    if (wait == "join") {
      const int64_t target = t->Int("wait_arg");
      out << "    └ waits to join " << ThreadLabel(threads, target) << "\n";
      tid = target;
      continue;
    }
    if (wait == "migration") {
      out << "    └ waits on migration to n" << t->Int("wait_node") << "\n";
      return;
    }
    if (wait == "backoff") {
      out << "    └ waits in failure backoff\n";
      return;
    }
    out << "    └ blocked (condition/sleep — no tracked resource)\n";
    return;
  }
  out << "  ... chain truncated at depth 32\n";
}

void RenderSuspicion(const Json& dump, std::ostream& out) {
  const Json* suspicion = dump.Get("suspicion");
  const Json* nodes = dump.Get("nodes");
  if (suspicion == nullptr || suspicion->kind != Json::Kind::kArray) {
    return;
  }
  bool any = false;
  for (const Json& view : suspicion->arr) {
    const Json* sus = view.Get("suspects");
    if (sus != nullptr && !sus->arr.empty()) {
      any = true;
    }
  }
  out << "Suspicion views:\n";
  if (!any) {
    out << "  all nodes trust all nodes\n";
    return;
  }
  for (const Json& view : suspicion->arr) {
    const Json* sus = view.Get("suspects");
    if (sus == nullptr || sus->arr.empty()) {
      continue;
    }
    out << "  n" << view.Int("viewer") << " suspects:";
    for (const Json& p : sus->arr) {
      out << " n" << static_cast<int64_t>(p.num);
    }
    out << "\n";
  }
  // Discrepancies: a suspected node whose recorder shows it alive.
  for (const Json& view : suspicion->arr) {
    const Json* sus = view.Get("suspects");
    if (sus == nullptr) {
      continue;
    }
    for (const Json& p : sus->arr) {
      const int64_t peer = static_cast<int64_t>(p.num);
      const Json* n = FindBy(nodes, "node", peer);
      if (n != nullptr && !n->Bool("crashed")) {
        out << "  ** discrepancy: n" << view.Int("viewer") << " suspected n" << peer
            << ", but n" << peer << " never crashed (last event " << Ms(n->Int("last_event_ns"))
            << ") **\n";
      }
    }
  }
}

void RenderTraffic(const Json& dump, std::ostream& out) {
  const Json* events = dump.Get("events");
  if (events == nullptr || events->kind != Json::Kind::kArray) {
    return;
  }
  // Aggregate the retained window's wire traffic by link; keys match the
  // net.link_bytes / net.link_queue_depth metric labels.
  std::map<std::string, std::pair<int64_t, int64_t>> links;  // label -> (msgs, bytes)
  for (const Json& e : events->arr) {
    if (e.Str("type") != "message") {
      continue;
    }
    const std::string label =
        std::to_string(e.Int("node")) + "->" + std::to_string(e.Int("dst"));
    links[label].first += 1;
    links[label].second += e.Int("bytes");
  }
  if (links.empty()) {
    return;
  }
  out << "Final-window link traffic (cross-reference metrics net.link_bytes{<link>}):\n";
  for (const auto& [label, mb] : links) {
    out << "  " << label << ": " << mb.first << " msgs, " << mb.second << " bytes\n";
  }
}

}  // namespace

bool ParseJson(const std::string& text, Json* out, std::string* error) {
  return Parser(text, error).Parse(out);
}

LoadStatus LoadJson(const std::string& path, Json* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return LoadStatus::kUnreadable;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string parse_error;
  if (!ParseJson(text.str(), out, &parse_error)) {
    *error = path + ": " + parse_error;
    return LoadStatus::kMalformed;
  }
  return LoadStatus::kOk;
}

void RenderReport(const Json& dump, std::ostream& out, size_t timeline_events) {
  const Json* threads = dump.Get("threads");
  out << "=== amber flight recorder: " << dump.Str("fdr", "?") << " ===\n";
  out << "reason: " << dump.Str("reason", "?");
  const std::string detail = dump.Str("detail");
  if (!detail.empty()) {
    out << " — " << detail;
  }
  out << "\n";
  out << "virtual time of death: " << Ms(dump.Int("virtual_time_ns")) << "\n";
  out << "dying thread: " << ThreadLabel(threads, dump.Int("dying_thread")) << "\n";
  out << "recorder: " << dump.Int("recorded") << " events recorded, " << dump.Int("dropped")
      << " overwritten (ring capacity " << dump.Int("ring_capacity") << "/node)\n";

  const Json* nodes = dump.Get("nodes");
  if (nodes != nullptr && nodes->kind == Json::Kind::kArray) {
    out << "\nNodes:\n";
    for (const Json& n : nodes->arr) {
      out << "  n" << n.Int("node") << ": " << (n.Bool("crashed") ? "CRASHED" : "up")
          << ", last event " << Ms(n.Int("last_event_ns")) << ", " << n.Int("recorded")
          << " recorded (" << n.Int("dropped") << " dropped)\n";
    }
  }

  out << "\n";
  RenderSuspicion(dump, out);
  out << "\n";
  RenderCausalChain(dump, out);

  const Json* locks = dump.Get("locks");
  if (locks != nullptr && !locks->arr.empty()) {
    out << "\nLocks held or contended at death:\n";
    for (const Json& l : locks->arr) {
      out << "  lock " << l.Int("lock") << ": held by "
          << ThreadLabel(threads, l.Int("holder"));
      const Json* waiters = l.Get("waiters");
      if (waiters != nullptr && !waiters->arr.empty()) {
        out << "; waiting:";
        for (const Json& w : waiters->arr) {
          out << " " << static_cast<int64_t>(w.num);
        }
      }
      out << "\n";
    }
  }

  const Json* rpcs = dump.Get("rpcs_in_flight");
  if (rpcs != nullptr && !rpcs->arr.empty()) {
    out << "\nRPCs in flight:\n";
    for (const Json& r : rpcs->arr) {
      out << "  rpc " << r.Int("id") << " n" << r.Int("src") << "->n" << r.Int("dst") << ", "
          << r.Int("bytes") << " bytes, requester "
          << ThreadLabel(threads, r.Int("requester")) << ", departed "
          << Ms(r.Int("depart_ns")) << ", " << r.Int("attempts") << " transmission"
          << (r.Int("attempts") == 1 ? "" : "s") << "\n";
    }
  }

  const Json* objects = dump.Get("objects");
  if (objects != nullptr && !objects->arr.empty()) {
    out << "\nRecently-touched objects (descriptor chain per node):\n";
    for (const Json& o : objects->arr) {
      out << "  #" << o.Int("id") << " " << o.Str("label") << " @ n" << o.Int("node")
          << " (touched " << Ms(o.Int("last_touched_ns")) << ")";
      const Json* chain = o.Get("chain");
      if (chain != nullptr && !chain->arr.empty()) {
        out << " [";
        for (size_t i = 0; i < chain->arr.size(); ++i) {
          out << (i == 0 ? "" : " ") << chain->arr[i].str;
        }
        out << "]";
      }
      out << "\n";
    }
  }

  out << "\n";
  RenderTraffic(dump, out);

  const Json* events = dump.Get("events");
  if (events != nullptr && events->kind == Json::Kind::kArray) {
    const size_t total = events->arr.size();
    const size_t show = std::min(timeline_events, total);
    out << "\nFinal " << show << " of " << total << " retained events:\n";
    for (size_t i = total - show; i < total; ++i) {
      RenderEventLine(events->arr[i], out);
    }
  }
}

}  // namespace fdrtool
