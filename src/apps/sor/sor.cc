#include "src/apps/sor/sor.h"

#include <algorithm>
#include <cmath>

#include "src/base/panic.h"
#include "src/core/amber.h"

namespace sor {
namespace {

using amber::Barrier;
using amber::Condition;
using amber::Here;
using amber::Lock;
using amber::MonitorGuard;
using amber::MoveTo;
using amber::New;
using amber::NodeId;
using amber::Object;
using amber::Ref;
using amber::Runtime;
using amber::StartThreadNamed;
using amber::ThreadRef;
using amber::Work;

// Phase numbering: phase p updates color p % 2 (0 = black) of iteration
// p / 2. Computing phase p needs the neighbours' phase p-1 edge values;
// initial ghosts count as phase -1.
constexpr int kBlack = 0;

uint64_t HashDoubles(const std::vector<double>& v) {
  uint64_t h = 1469598103934665603ULL;
  for (double d : v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    __builtin_memcpy(&bits, &d, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((bits >> (8 * i)) & 0xff)) * 1099511628211ULL;
    }
  }
  return h;
}

// The SOR update of one point. RelaxRow applies it for both the sequential
// and the parallel versions, so their arithmetic is bitwise identical.
inline double Relax(double v, double up, double down, double left, double right, double omega) {
  return (1.0 - omega) * v + omega * 0.25 * (up + down + left + right);
}

struct RowSweep {
  double max_delta = 0.0;  // max |next - old| over the row's updated points
  int updated = 0;
};

// The red/black row kernel, shared by the sequential and parallel versions:
// relaxes row[first], row[first + 2], ... up to row[last], where `first` is
// the row's first point of the phase's color and `up`/`down` are the rows
// above and below, indexed by the same column.
inline RowSweep RelaxRow(double* row, const double* up, const double* down, int first, int last,
                         double omega) {
  RowSweep s;
  for (int c = first; c <= last; c += 2) {
    const double old = row[c];
    const double next = Relax(old, up[c], down[c], row[c - 1], row[c + 1], omega);
    row[c] = next;
    s.max_delta = std::max(s.max_delta, std::fabs(next - old));
    ++s.updated;
  }
  return s;
}

// The first index i >= lo with (offset + i) % 2 == color. A point's color is
// (row + global column) % 2, so along row r of a strip whose local column 0
// is global column col0 the offset is r + col0, and down global column gc it
// is gc.
inline int FirstOfColor(int lo, int offset, int color) { return lo + ((offset + lo + color) & 1); }

class Master;

// One column strip of the grid (Figure 1's "section object").
class Section : public Object {
 public:
  Section(const Params& params, int index, int col0, int width, int threads)
      : p_(params),
        index_(index),
        col0_(col0),
        width_(width),
        threads_(threads),
        local_barrier_(threads),
        data_(static_cast<size_t>(params.rows) * static_cast<size_t>(width + 2), 0.0) {
    ghost_phase_[0] = ghost_phase_[1] = -1;
    snapshot_phase_[0] = snapshot_phase_[1] = -1;
  }

  void SetNeighbors(Ref<Section> left, Ref<Section> right) {
    left_ = left;
    right_ = right;
  }

  // Applies boundary conditions to owned columns (and boundary ghosts).
  void InitGrid() {
    for (int c = -1; c <= width_; ++c) {
      const int gc = col0_ + c;
      if (gc < 0 || gc >= p_.cols) {
        continue;
      }
      for (int r = 0; r < p_.rows; ++r) {
        At(r, c) = BoundaryValue(r, gc);
      }
    }
  }

  // --- Thread bodies ----------------------------------------------------------

  // Compute thread `worker` (0-based): updates a contiguous block of rows.
  void ComputeLoop(int worker);

  // Edge thread for side 0 (left) / 1 (right): ships each published phase's
  // edge values to the neighbour by remote invocation.
  void EdgeLoop(int side);

  // Reports the per-iteration residual to the master and relays its
  // decision (Figure 1's "one additional thread per section").
  void ConvergenceLoop(Ref<Master> master);

  // --- Remote-invoked ------------------------------------------------------------

  // Receives one color's edge values from a neighbour (a single network
  // transaction per edge per phase, §6).
  void PutEdge(int side, int64_t phase, std::vector<double> values) {
    MonitorGuard g(lock_);
    const int ghost = side == 0 ? -1 : width_;
    const int color = static_cast<int>(phase % 2);
    size_t k = 0;
    for (int r = FirstOfColor(1, col0_ + ghost, color); r < p_.rows - 1; r += 2) {
      AMBER_DCHECK(k < values.size());
      At(r, ghost) = values[k++];
    }
    AMBER_CHECK(k == values.size()) << "edge size mismatch";
    ghost_phase_[side] = phase;
    cv_.Broadcast();
  }

  // --- Harness --------------------------------------------------------------------

  std::vector<double> ExtractColumns() {
    std::vector<double> out(static_cast<size_t>(p_.rows) * static_cast<size_t>(width_));
    for (int r = 0; r < p_.rows; ++r) {
      for (int c = 0; c < width_; ++c) {
        out[static_cast<size_t>(r) * width_ + c] = At(r, c);
      }
    }
    return out;
  }

  int iterations_run() const { return static_cast<int>(decided_iter_) + 1; }
  int col0() const { return col0_; }
  int width() const { return width_; }

 private:
  double BoundaryValue(int r, int gc) const {
    return r == 0 ? p_.boundary_top : 0.0;  // hot top edge, cold elsewhere
  }

  // Row r at local column 0; [-1] and [width_] are its ghosts.
  double* Row(int r) {
    return &data_[static_cast<size_t>(r) * static_cast<size_t>(width_ + 2) + 1];
  }

  // c is a local column in [-1, width_]; -1 and width_ are ghosts.
  double& At(int r, int c) { return Row(r)[c]; }

  // Updates color points of phase `phase` in rows [r0, r1) over local
  // columns [c_lo, c_hi]; returns the max delta and charges CPU per row.
  double UpdateRows(int r0, int r1, int64_t phase, int c_lo, int c_hi) {
    const int color = static_cast<int>(phase % 2);
    // Only interior global columns [1, cols - 2] are updated.
    const int lo = std::max(c_lo, 1 - col0_);
    const int hi = std::min(c_hi, p_.cols - 2 - col0_);
    const double omega = p_.omega;
    double max_delta = 0.0;
    for (int r = std::max(r0, 1); r < std::min(r1, p_.rows - 1); ++r) {
      const RowSweep s =
          RelaxRow(Row(r), Row(r - 1), Row(r + 1), FirstOfColor(lo, r + col0_, color), hi, omega);
      max_delta = std::max(max_delta, s.max_delta);
      if (s.updated > 0) {
        Work(s.updated * p_.point_cost);
      }
    }
    return max_delta;
  }

  // One color's points of local column `c`, rows 1 .. rows - 2: the edge
  // values a neighbour needs for the next phase.
  std::vector<double> EdgeValues(int c, int color) {
    const int first = FirstOfColor(1, col0_ + c, color);
    std::vector<double> values;
    values.reserve(static_cast<size_t>(std::max(0, (p_.rows - first) / 2)));
    for (int r = first; r < p_.rows - 1; r += 2) {
      values.push_back(At(r, c));
    }
    return values;
  }

  // Snapshots and ships one phase's edge values to both neighbours by
  // blocking remote invocations (no-overlap mode only).
  void ShipEdgesInline(int64_t phase) {
    for (int side = 0; side < 2; ++side) {
      const Ref<Section> neighbor = side == 0 ? left_ : right_;
      if (!neighbor) {
        continue;
      }
      std::vector<double> values;
      {
        MonitorGuard g(lock_);
        values = EdgeValues(side == 0 ? 0 : width_ - 1, static_cast<int>(phase % 2));
        snapshot_phase_[side] = phase;
        cv_.Broadcast();
      }
      neighbor.Call(&Section::PutEdge, side == 0 ? 1 : 0, phase, values);
    }
  }

  // Blocks until both neighbours' phase-1 edges are here and our own
  // phase-2 edges have been snapshotted (so we may overwrite them).
  void WaitGhosts(int64_t phase) {
    MonitorGuard g(lock_);
    while (!(GhostsReady(0, phase) && GhostsReady(1, phase))) {
      cv_.Wait(lock_);
    }
  }

  bool GhostsReady(int side, int64_t phase) {
    const bool have_neighbor = side == 0 ? static_cast<bool>(left_) : static_cast<bool>(right_);
    if (!have_neighbor) {
      return true;
    }
    return ghost_phase_[side] >= phase - 1 && snapshot_phase_[side] >= phase - 2;
  }

  const Params p_;
  const int index_;
  const int col0_;
  const int width_;
  const int threads_;

  Ref<Section> left_;
  Ref<Section> right_;

  // Member objects: co-resident with the section, move with it (§3.6).
  Lock lock_;
  Condition cv_;
  Barrier local_barrier_;

  std::vector<double> data_;

  int64_t edges_ready_ = -1;       // highest phase whose edges may be shipped
  int64_t ghost_phase_[2];         // last phase received per side
  int64_t snapshot_phase_[2];      // last phase snapshotted by edge thread
  double iter_delta_ = 0.0;        // residual accumulation for this iteration
  int delta_count_ = 0;            // compute threads that deposited
  int64_t delta_iter_ready_ = -1;  // iteration whose delta is complete
  int64_t decided_iter_ = -1;      // last iteration with a master decision
  bool stop_ = false;
};

// The single master object: the convergence barrier of Figure 1.
class Master : public Object {
 public:
  Master(int sections, double tolerance, int max_iterations)
      : sections_(sections), tolerance_(tolerance), max_iterations_(max_iterations) {}

  // Called once per iteration by every section's convergence thread;
  // returns true when the computation should stop.
  bool Report(int64_t iter, double delta) {
    MonitorGuard g(lock_);
    AMBER_CHECK(iter == current_iter_) << "convergence reports out of step";
    global_delta_ = std::max(global_delta_, delta);
    if (++reported_ == sections_) {
      last_stop_ = (tolerance_ > 0.0 && global_delta_ < tolerance_) ||
                   iter + 1 >= max_iterations_;
      last_delta_ = global_delta_;
      decided_iter_ = iter;
      ++current_iter_;
      reported_ = 0;
      global_delta_ = 0.0;
      cv_.Broadcast();
    } else {
      while (decided_iter_ < iter) {
        cv_.Wait(lock_);
      }
    }
    return last_stop_;
  }

  double last_delta() const { return last_delta_; }

 private:
  Lock lock_;
  Condition cv_;
  const int sections_;
  const double tolerance_;
  const int max_iterations_;
  int reported_ = 0;
  double global_delta_ = 0.0;
  int64_t current_iter_ = 0;
  int64_t decided_iter_ = -1;
  bool last_stop_ = false;
  double last_delta_ = 0.0;
};

void Section::ComputeLoop(int worker) {
  // Row block for this worker.
  const int rows_per = (p_.rows + threads_ - 1) / threads_;
  const int r0 = worker * rows_per;
  const int r1 = std::min(p_.rows, r0 + rows_per);
  double delta = 0.0;
  for (int64_t iter = 0;; ++iter) {
    for (int color = 0; color < 2; ++color) {
      const int64_t phase = iter * 2 + color;
      if (p_.overlap && width_ > 2) {
        // Interior columns first — they need no ghosts — overlapping with
        // the in-flight edge exchange; then the two boundary columns.
        delta = std::max(delta, UpdateRows(r0, r1, phase, 1, width_ - 2));
        WaitGhosts(phase);
        delta = std::max(delta, UpdateRows(r0, r1, phase, 0, 0));
        delta = std::max(delta, UpdateRows(r0, r1, phase, width_ - 1, width_ - 1));
      } else {
        WaitGhosts(phase);
        delta = std::max(delta, UpdateRows(r0, r1, phase, 0, width_ - 1));
      }
      local_barrier_.Wait();
      if (worker == 0) {
        if (p_.overlap) {
          // Publish this phase's edges for the edge threads to ship
          // concurrently with the next phase's interior computation.
          MonitorGuard g(lock_);
          edges_ready_ = phase;
          cv_.Broadcast();
        } else {
          // Unstructured variant (the paper's second 8Nx4P point): the
          // compute thread ships both edges itself, serially — the
          // communication time is dead time.
          ShipEdgesInline(phase);
        }
      }
    }
    // Deposit this iteration's residual; the convergence thread reports it.
    {
      MonitorGuard g(lock_);
      iter_delta_ = std::max(iter_delta_, delta);
      if (++delta_count_ == threads_) {
        delta_count_ = 0;
        delta_iter_ready_ = iter;
        cv_.Broadcast();
      }
      // Wait for the global decision before starting the next iteration.
      while (decided_iter_ < iter) {
        cv_.Wait(lock_);
      }
      if (stop_) {
        return;
      }
    }
    delta = 0.0;
  }
}

void Section::EdgeLoop(int side) {
  const Ref<Section> neighbor = side == 0 ? left_ : right_;
  if (!neighbor) {
    return;  // global boundary: nothing to exchange
  }
  const int edge_local = side == 0 ? 0 : width_ - 1;
  for (int64_t phase = 0;; ++phase) {
    std::vector<double> values;
    {
      MonitorGuard g(lock_);
      while (edges_ready_ < phase && !stop_) {
        cv_.Wait(lock_);
      }
      if (edges_ready_ < phase && stop_) {
        return;  // converged; the remaining edges are never read
      }
      // Snapshot the just-updated color's points of our edge column.
      values = EdgeValues(edge_local, static_cast<int>(phase % 2));
      snapshot_phase_[side] = phase;
      cv_.Broadcast();
    }
    // One network transaction transfers the whole edge (§6): this thread
    // migrates to the neighbour carrying the values and returns.
    neighbor.Call(&Section::PutEdge, side == 0 ? 1 : 0, phase, values);
  }
}

void Section::ConvergenceLoop(Ref<Master> master) {
  for (int64_t iter = 0;; ++iter) {
    double delta;
    {
      MonitorGuard g(lock_);
      while (delta_iter_ready_ < iter) {
        cv_.Wait(lock_);
      }
      delta = iter_delta_;
      iter_delta_ = 0.0;
    }
    // Remote invocation on the master: the paper's per-iteration barrier.
    const bool stop = master.Call(&Master::Report, iter, delta);
    {
      MonitorGuard g(lock_);
      decided_iter_ = iter;
      stop_ = stop;
      cv_.Broadcast();
    }
    if (stop) {
      return;
    }
  }
}

std::vector<int> SectionWidths(int cols, int sections) {
  std::vector<int> widths(static_cast<size_t>(sections), cols / sections);
  for (int i = 0; i < cols % sections; ++i) {
    ++widths[static_cast<size_t>(i)];
  }
  return widths;
}

}  // namespace

Result RunSequential(amber::Runtime& rt, const Params& params, bool keep_grid) {
  Result result;
  rt.Run([&] {
    const int rows = params.rows;
    const int cols = params.cols;
    std::vector<double> grid(static_cast<size_t>(rows) * cols, 0.0);
    auto at = [&](int r, int c) -> double& {
      return grid[static_cast<size_t>(r) * cols + static_cast<size_t>(c)];
    };
    for (int c = 0; c < cols; ++c) {
      at(0, c) = params.boundary_top;
    }
    const Time start = amber::Now();
    const double omega = params.omega;
    int iterations = 0;
    double delta = 0.0;
    for (int iter = 0; iter < params.max_iterations; ++iter) {
      delta = 0.0;
      for (int color = 0; color < 2; ++color) {
        for (int r = 1; r < rows - 1; ++r) {
          double* row = &at(r, 0);
          const RowSweep s =
              RelaxRow(row, row - cols, row + cols, FirstOfColor(1, r, color), cols - 2, omega);
          delta = std::max(delta, s.max_delta);
          Work(s.updated * params.point_cost);
        }
      }
      iterations = iter + 1;
      if (params.tolerance > 0.0 && delta < params.tolerance) {
        break;
      }
    }
    result.iterations = iterations;
    result.final_delta = delta;
    result.solve_time = amber::Now() - start;
    result.grid_hash = HashDoubles(grid);
    if (keep_grid) {
      result.grid = std::move(grid);
    }
  });
  return result;
}

Result RunAmber(amber::Runtime& rt, const Params& params, bool keep_grid) {
  AMBER_CHECK(params.sections >= 1);
  AMBER_CHECK(params.cols >= 2 * params.sections) << "sections too narrow";
  Result result;
  rt.Run([&] {
    const int sections = params.sections;
    const int total_procs = rt.nodes() * rt.procs_per_node();
    const int threads = params.threads_per_section > 0
                            ? params.threads_per_section
                            : std::max(1, total_procs / sections);
    const auto widths = SectionWidths(params.cols, sections);

    // Create and place the sections: round-robin strips over nodes, as in
    // the paper's decomposition (one or more sections per node).
    std::vector<Ref<Section>> secs;
    int col0 = 0;
    for (int s = 0; s < sections; ++s) {
      auto sec = New<Section>(params, s, col0, widths[static_cast<size_t>(s)], threads);
      const NodeId target = static_cast<NodeId>((s * rt.nodes()) / sections);
      if (target != 0) {
        MoveTo(sec, target);
      }
      secs.push_back(sec);
      col0 += widths[static_cast<size_t>(s)];
    }
    auto master = New<Master>(sections, params.tolerance, params.max_iterations);
    for (int s = 0; s < sections; ++s) {
      secs[static_cast<size_t>(s)].Call(&Section::SetNeighbors,
                                        s > 0 ? secs[static_cast<size_t>(s - 1)] : Ref<Section>(),
                                        s + 1 < sections ? secs[static_cast<size_t>(s + 1)]
                                                         : Ref<Section>());
      secs[static_cast<size_t>(s)].Call(&Section::InitGrid);
    }

    net::Network& net = rt.network();
    const int64_t msgs0 = net.messages();
    const int64_t bytes0 = net.bytes_sent();
    const int64_t migr0 = rt.thread_migrations();
    const Time start = amber::Now();

    // Figure 1's thread structure: compute threads + 2 edge threads + 1
    // convergence thread per section.
    std::vector<ThreadRef<void>> ts;
    for (int s = 0; s < sections; ++s) {
      auto sec = secs[static_cast<size_t>(s)];
      for (int w = 0; w < threads; ++w) {
        ts.push_back(StartThreadNamed("compute-" + std::to_string(s) + "-" + std::to_string(w),
                                      0, sec, &Section::ComputeLoop, w));
      }
      if (params.overlap) {
        for (int side = 0; side < 2; ++side) {
          ts.push_back(StartThreadNamed("edge-" + std::to_string(s) + "-" + std::to_string(side),
                                        0, sec, &Section::EdgeLoop, side));
        }
      }
      ts.push_back(StartThreadNamed("conv-" + std::to_string(s), 0, sec,
                                    &Section::ConvergenceLoop, master));
    }
    for (auto& t : ts) {
      t.Join();
    }
    result.solve_time = amber::Now() - start;
    result.net_messages = net.messages() - msgs0;
    result.net_bytes = net.bytes_sent() - bytes0;
    result.thread_migrations = rt.thread_migrations() - migr0;
    result.iterations = secs[0].Call(&Section::iterations_run);
    result.final_delta = master.Call(&Master::last_delta);

    // Reassemble the grid for verification.
    std::vector<double> grid(static_cast<size_t>(params.rows) * params.cols, 0.0);
    for (int s = 0; s < sections; ++s) {
      auto sec = secs[static_cast<size_t>(s)];
      const int c0 = sec.Call(&Section::col0);
      const int w = sec.Call(&Section::width);
      const auto cols_data = sec.Call(&Section::ExtractColumns);
      for (int r = 0; r < params.rows; ++r) {
        for (int c = 0; c < w; ++c) {
          grid[static_cast<size_t>(r) * params.cols + static_cast<size_t>(c0 + c)] =
              cols_data[static_cast<size_t>(r) * w + static_cast<size_t>(c)];
        }
      }
    }
    result.grid_hash = HashDoubles(grid);
    if (keep_grid) {
      result.grid = std::move(grid);
    }
  });
  return result;
}

Result RunAmberOn(int nodes, int procs, const Params& params, const sim::CostModel& cost,
                  bool keep_grid) {
  amber::Runtime::Config config;
  config.nodes = nodes;
  config.procs_per_node = procs;
  config.cost = cost;
  config.arena_bytes = size_t{1} << 30;
  amber::Runtime rt(config);
  return RunAmber(rt, params, keep_grid);
}

Result RunSequentialOn(const Params& params, const sim::CostModel& cost, bool keep_grid) {
  amber::Runtime::Config config;
  config.nodes = 1;
  config.procs_per_node = 1;
  config.cost = cost;
  config.arena_bytes = size_t{256} << 20;
  amber::Runtime rt(config);
  return RunSequential(rt, params, keep_grid);
}

}  // namespace sor
