// Tests for the shared JSON helpers (src/base/json.h): escaping keeps every
// byte of a label through a parse, numbers render exactly, the atomic write
// leaves no temporary behind, and the dump writers that use them produce
// documents fdrtool::ParseJson reads back unchanged.

#include "src/base/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "src/apps/fdr/fdr_report.h"
#include "src/core/amber.h"
#include "src/metrics/metrics.h"
#include "src/rtrace/rtrace.h"

namespace amber {
namespace {

// A label with a tab, a newline, a quote, a backslash and a bare control
// byte.
const std::string kAwkward = "tab\there\nnext \"quoted\" back\\slash \x01 end";

fdrtool::Json Parse(const std::string& text) {
  fdrtool::Json doc;
  std::string error;
  EXPECT_TRUE(fdrtool::ParseJson(text, &doc, &error)) << error << "\n" << text;
  return doc;
}

TEST(JsonTest, EscapeNamesCommonControlsAndHexEncodesTheRest) {
  EXPECT_EQ(json::Escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json::Escape("\n\t\r"), "\\n\\t\\r");
  EXPECT_EQ(json::Escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(json::Escape("h\xc3\xa9llo"), "h\xc3\xa9llo");  // UTF-8 passes through
  EXPECT_EQ(json::Quote("x"), "\"x\"");
  EXPECT_EQ(Parse(json::Quote(kAwkward)).str, kAwkward);
}

TEST(JsonTest, NumPrintsIntegersExactlyAndOtherValuesAtNineDigits) {
  EXPECT_EQ(json::Num(42), "42");
  EXPECT_EQ(json::Num(-7), "-7");
  EXPECT_EQ(json::Num(1234567890123.0), "1234567890123");
  EXPECT_EQ(json::Num(0.5), "0.5");
  EXPECT_EQ(json::Num(1.0 / 3.0), "0.333333333");
  EXPECT_EQ(json::Num(1e16), "1e+16");
  EXPECT_EQ(json::Num(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json::Num(std::nan("")), "0");
}

TEST(JsonTest, AtomicWriteReplacesTheFileAndLeavesNoTemporary) {
  const std::string path = ::testing::TempDir() + "json_test_atomic.json";
  ASSERT_TRUE(json::WriteFileAtomically(path, [](std::ostream& out) { out << "{\"v\": 1}\n"; }));
  ASSERT_TRUE(json::WriteFileAtomically(path, [](std::ostream& out) { out << "{\"v\": 2}\n"; }));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), "{\"v\": 2}\n");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
  EXPECT_FALSE(json::WriteFileAtomically("/nonexistent-dir/x.json", [](std::ostream&) {}));
}

TEST(JsonTest, RegistryLabelWithControlBytesRoundTrips) {
  metrics::Registry registry;
  registry.GetCounter("labelled", kAwkward).Add(3);
  std::ostringstream out;
  registry.WriteJson(out);
  const fdrtool::Json doc = Parse(out.str());
  const fdrtool::Json* counters = doc.Get("counters");
  ASSERT_NE(counters, nullptr);
  const fdrtool::Json* family = counters->Get("labelled");
  ASSERT_NE(family, nullptr);
  ASSERT_EQ(family->obj.size(), 1u);
  EXPECT_EQ(family->obj[0].first, kAwkward);
  EXPECT_EQ(family->obj[0].second.num, 3);
}

class Worker final : public Object {
 public:
  int Spin(int units) {
    Work(Micros(50) * units);
    return units;
  }
};

TEST(JsonTest, RtraceRequestNameWithControlBytesRoundTrips) {
  rtrace::Tracer tracer({.name = "json"});
  Runtime::Config config;
  config.nodes = 2;
  config.procs_per_node = 2;
  config.arena_bytes = size_t{64} << 20;
  Runtime rt(config);
  tracer.AttachTo(rt);
  rt.Run([&] {
    auto w = NewOn<Worker>(1);
    tracer.OpenRequest(kAwkward);
    StartThread(w, &Worker::Spin, 2).Join();
  });
  std::ostringstream out;
  tracer.WriteJson(out);
  const fdrtool::Json doc = Parse(out.str());
  const fdrtool::Json* traces = doc.Get("traces");
  ASSERT_NE(traces, nullptr);
  ASSERT_EQ(traces->arr.size(), 1u);
  EXPECT_EQ(traces->arr[0].Str("name"), kAwkward);
}

}  // namespace
}  // namespace amber
