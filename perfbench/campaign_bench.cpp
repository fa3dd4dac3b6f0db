// campaign_bench — end-to-end and per-layer timing of xpipes campaigns.
//
// Runs one benchmark workload (a .sweep grid or a .tune search from
// perfbench/workloads/) the way xsweep and xtune do, through the public
// campaign entry points sweep::SweepRunner::run and tune::Tuner::run,
// repeating the whole campaign until the measurement window is spent.
// It then re-runs the same points through a staged replica of
// SweepRunner::run_point — the same library calls, one stage at a time —
// which is the row-by-row reference for the correctness gate and, in a
// traced run, the source of the per-layer spans and counters.
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
//                  --jobs J --spec-dir DIR [--spans FILE]
//
// Prints one JSON object of raw samples on stdout; perfbench/run.py turns
// it into medians and quartiles.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/compiler/compiler.hpp"
#include "src/sweep/result.hpp"
#include "src/sweep/runner.hpp"
#include "src/sweep/spec.hpp"
#include "src/topology/deadlock.hpp"
#include "src/topology/routing.hpp"
#include "src/traffic/stats.hpp"
#include "src/traffic/traffic.hpp"
#include "src/tune/spec.hpp"
#include "src/tune/tuner.hpp"
#include "src/workload/benchmarks.hpp"

namespace {

using namespace xpl;

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double thread_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_numbers(const std::vector<double>& values) {
  std::ostringstream os;
  os.precision(17);
  os << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << (i ? ", " : "") << values[i];
  }
  os << "]";
  return os.str();
}

// ------------------------------------------------------------ workloads

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t jobs = 1;  ///< campaign workers
  std::string spec_dir = "perfbench/workloads";
  std::string spans_path;
};

/// True for a .tune search workload, false for a .sweep grid.
bool is_tune(const std::string& workload) {
  if (workload == "lowload_scan" || workload == "saturated_scan") return false;
  if (workload == "tune_knee") return true;
  throw std::runtime_error("unknown workload '" + workload + "'");
}

/// The workload's campaign, loaded from its spec file with the
/// benchmark seed applied.
struct Campaign {
  sweep::SweepSpec sweep;
  tune::TuneSpec tune;
};

Campaign load_campaign(const Args& args) {
  Campaign c;
  const std::string dir = args.spec_dir + "/" + args.workload;
  if (is_tune(args.workload)) {
    c.tune = tune::parse_tune(read_file(dir + ".tune"));
    c.tune.seed = args.seed;
  } else {
    c.sweep = sweep::parse_sweep(read_file(dir + ".sweep"));
    c.sweep.seed = args.seed;
  }
  return c;
}

// ------------------------------------------------- staged replica + spans

/// Per-layer counters of one or more points, read from the public
/// counters of the point's Network after its drain.
struct Counters {
  std::uint64_t points = 0;
  std::uint64_t cycles = 0;         ///< kernel cycles (driven + drained)
  std::uint64_t leapt_cycles = 0;
  std::uint64_t drain_cycles = 0;
  std::uint64_t wedged_points = 0;
  std::uint64_t link_flits = 0;
  std::uint64_t link_retx = 0;
  std::uint64_t switch_credit_stalls = 0;
  std::uint64_t flits_switched = 0;
  std::uint64_t switch_active_cycles = 0;
  std::uint64_t switch_cycles = 0;  ///< switches x cycles
  std::uint64_t ni_packets = 0;
  std::uint64_t ni_credit_stalls = 0;
  std::uint64_t txns_issued = 0;
  std::uint64_t txns_completed = 0;

  void add(const Counters& o) {
    points += o.points;
    cycles += o.cycles;
    leapt_cycles += o.leapt_cycles;
    drain_cycles += o.drain_cycles;
    wedged_points += o.wedged_points;
    link_flits += o.link_flits;
    link_retx += o.link_retx;
    switch_credit_stalls += o.switch_credit_stalls;
    flits_switched += o.flits_switched;
    switch_active_cycles += o.switch_active_cycles;
    switch_cycles += o.switch_cycles;
    ni_packets += o.ni_packets;
    ni_credit_stalls += o.ni_credit_stalls;
    txns_issued += o.txns_issued;
    txns_completed += o.txns_completed;
  }
};

/// Stages of one point, in the order run_point executes them.
enum Stage : std::size_t {
  kPoint,
  kTopology,
  kRoutes,
  kDeadlock,
  kBuild,
  kInject,
  kDrain,
  kCollect,
  kEstimate,
  kNumStages
};
constexpr const char* kStageNames[kNumStages] = {
    "point", "topology", "routes",  "deadlock", "build",
    "inject", "drain",   "collect", "estimate"};
/// Parent of each stage's span (routes and deadlock nest in topology).
constexpr Stage kStageParent[kNumStages] = {
    kPoint, kPoint, kTopology, kTopology, kPoint,
    kPoint, kPoint, kPoint,    kPoint};

struct Span {
  std::uint64_t trace_id = 0;  ///< the point's campaign index
  Stage stage = kPoint;
  double start = 0.0;
  double end = 0.0;
};

/// Everything one replica point produced besides its result row.
struct PointTrace {
  Counters counters;
  std::vector<Span> spans;
  bool wedged = false;
};

/// Stage-by-stage replica of SweepRunner::run_point: the same calls on
/// the same inputs, so its row must be byte-identical to the campaign's.
/// With `traced`, every stage is wrapped in a span, and the topology
/// stage also times the two analyses the Network constructor runs
/// (compute_all_routes, check_deadlock) as standalone calls.
sweep::SweepResult replica_point(const sweep::SweepPoint& point, bool traced,
                                 PointTrace& out) {
  auto span = [&](Stage stage, const auto& body) {
    if (!traced) return body();
    Span s{point.index, stage, wall_now(), 0.0};
    if constexpr (std::is_void_v<decltype(body())>) {
      body();
      s.end = wall_now();
      out.spans.push_back(s);
    } else {
      auto value = body();
      s.end = wall_now();
      out.spans.push_back(s);
      return value;
    }
  };

  sweep::SweepResult result;
  result.point = point;
  result.evaluated = true;
  const double point_start = wall_now();
  try {
    compiler::NocSpec spec;
    spec.name = point.label();
    spec.topo = span(kTopology, [&] {
      topology::Topology topo = point.build_topology();
      if (traced) {
        const auto routes = span(kRoutes, [&] {
          return topology::compute_all_routes(topo, point.net.routing);
        });
        span(kDeadlock, [&] {
          return topology::check_deadlock(
              topo, routes,
              topology::make_vc_policy(topo, point.net.routing,
                                       point.net.vcs));
        });
      }
      return topo;
    });
    spec.net = point.net;

    const compiler::XpipesCompiler xpipes;
    auto network = span(kBuild, [&] { return xpipes.build_simulation(spec); });

    // The driver outlives the drain, as in run_point: on a time-leap
    // kernel it registers an injector module with the network's kernel.
    std::optional<traffic::TrafficDriver> driver;
    span(kInject, [&] {
      traffic::TrafficConfig traffic_cfg = point.traffic;
      if (!point.app.empty()) {
        traffic_cfg.weights = workload::benchmark_weights(
            workload::benchmark(point.app), spec.topo);
      }
      driver.emplace(*network, traffic_cfg);
      driver->run(point.sim_cycles);
    });
    const std::uint64_t drained = span(kDrain, [&] {
      return network->run_until_quiescent(point.drain_cycles);
    });
    const auto stats = span(kCollect, [&] {
      return traffic::collect_run(*network, point.sim_cycles, point.warmup);
    });
    result.transactions = stats.transactions;
    result.avg_latency_cycles = stats.latency.mean;
    result.p95_latency_cycles = stats.latency.p95;
    result.throughput_tpc = stats.throughput;
    result.link_flits = stats.link_flits;
    result.retransmissions = stats.retransmissions;
    result.credit_stalls = stats.credit_stalls;
    result.avg_link_utilization = stats.avg_link_utilization;

    // Counters, read before the synthesis view builds its own network.
    Counters& c = out.counters;
    sim::Kernel& kernel = network->kernel();
    c.points = 1;
    c.cycles = kernel.cycle();
    c.leapt_cycles = kernel.leapt_cycles();
    c.drain_cycles = drained;
    out.wedged = !network->quiescent();
    c.wedged_points = out.wedged ? 1 : 0;
    c.link_flits = network->total_link_flits();
    c.link_retx = network->total_retransmissions();
    for (std::size_t s = 0; s < network->num_switches(); ++s) {
      auto& sw = network->switch_at(s);
      c.switch_credit_stalls += sw.credit_stalls();
      c.flits_switched += sw.flits_switched();
      c.switch_active_cycles += sw.active_cycles();
    }
    c.switch_cycles = network->num_switches() * kernel.cycle();
    for (std::size_t i = 0; i < network->num_initiators(); ++i) {
      c.ni_packets += network->initiator_ni(i).packets_sent();
      c.ni_credit_stalls += network->initiator_ni(i).credit_stalls();
      c.txns_completed += network->master(i).completed().size();
    }
    for (std::size_t t = 0; t < network->num_targets(); ++t) {
      c.ni_packets += network->target_ni(t).packets_sent();
      c.ni_credit_stalls += network->target_ni(t).credit_stalls();
    }
    c.txns_issued = driver->injected();

    if (point.estimate) {
      const auto report = span(kEstimate, [&] {
        return xpipes.estimate(spec, point.target_mhz);
      });
      result.area_mm2 = report.total_area_mm2;
      result.power_mw = report.total_power_mw;
      result.fmax_mhz = report.min_fmax_mhz;
    }
    result.ok = true;
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  }
  if (traced) out.spans.push_back({point.index, kPoint, point_start, wall_now()});
  return result;
}

/// One pass of the staged replica over `points` on `jobs` workers.
struct ReplicaPass {
  std::vector<sweep::SweepResult> rows;
  std::vector<PointTrace> traces;
  std::vector<double> point_s;  ///< host seconds per point
  double wall_s = 0.0;
};

ReplicaPass run_replica(const std::vector<sweep::SweepPoint>& points,
                        const std::vector<std::size_t>& batch_sizes,
                        std::size_t jobs, bool traced) {
  ReplicaPass pass;
  pass.rows.resize(points.size());
  pass.traces.resize(points.size());
  pass.point_s.resize(points.size());
  const sweep::SweepRunner pool(jobs);
  const double start = wall_now();
  std::size_t first = 0;
  // Batches run one after another, as the adaptive runner schedules them.
  for (const std::size_t n : batch_sizes) {
    pool.run_indexed(n, [&](std::size_t k) {
      const std::size_t i = first + k;
      const double t0 = wall_now();
      pass.rows[i] = replica_point(points[i], traced, pass.traces[i]);
      pass.point_s[i] = wall_now() - t0;
    });
    first += n;
  }
  pass.wall_s = wall_now() - start;
  return pass;
}

// ------------------------------------------------- campaign repetitions

struct Rep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> point_s;  ///< per point, sweeps only
  std::string csv;              ///< campaign export (CSV / trajectory CSV)
  std::vector<sweep::SweepResult> rows;
  std::vector<std::size_t> batch_sizes;  ///< tune only
  std::size_t probes_to_knee = 0;        ///< tune only: saturation evals
  /// Time spent choosing points: the tuner's proposer (driving-thread
  /// CPU) or, for a grid, its expansion.
  double proposer_s = 0.0;
};

/// One sweep campaign through SweepRunner::run, as xsweep runs it. Each
/// point's host time is the gap between consecutive on_result calls on
/// the worker thread that ran it (the hook runs on that thread right
/// after run_point returns).
Rep sweep_rep(const Campaign& c, std::size_t jobs) {
  Rep rep;
  const double cpu0 = process_cpu_now();
  const double t0 = wall_now();
  sweep::SweepRunner runner(jobs);
  std::map<std::thread::id, double> last_done;
  rep.point_s.assign(c.sweep.num_points(), 0.0);
  runner.on_result = [&](const sweep::SweepResult& r) {
    const double t = wall_now();
    auto [it, fresh] = last_done.emplace(std::this_thread::get_id(), t0);
    rep.point_s.at(r.point.index) = t - it->second;
    it->second = t;
  };
  const sweep::ResultTable table = runner.run(c.sweep);
  rep.wall_s = wall_now() - t0;
  rep.cpu_s = process_cpu_now() - cpu0;
  rep.csv = table.to_csv();
  rep.rows = table.rows();
  const double expand0 = wall_now();
  const auto expanded = c.sweep.points();
  rep.proposer_s = wall_now() - expand0;
  return rep;
}

/// One tuning run through Tuner::run, as xtune runs it: wall is the
/// time to knee. The hooks record the batch structure the runner saw
/// (on_result fires for each result once its batch is done, on_eval as
/// the proposer ingests it) and the driving thread's CPU time around the
/// proposer: from the start of each propose() to the first result of
/// the batch it proposed. During a multi-point batch the driving thread
/// only waits for the workers; a one-point batch runs on the driving
/// thread itself, so there the span ends at the last ingested result.
Rep tune_rep(const Campaign& c, std::size_t jobs) {
  Rep rep;
  const double cpu0 = process_cpu_now();
  const double t0 = wall_now();
  const double thread0 = thread_cpu_now();
  sweep::SweepRunner runner(jobs);
  std::vector<double> first_result;  // per batch
  std::vector<std::pair<double, double>> ingest;  // per propose(): first, last on_eval
  bool batch_open = false;
  runner.on_result = [&](const sweep::SweepResult&) {
    if (!batch_open) {
      first_result.push_back(thread_cpu_now());
      rep.batch_sizes.push_back(0);
    }
    batch_open = true;
    ++rep.batch_sizes.back();
  };
  tune::Tuner tuner(runner);
  tuner.on_eval = [&](const tune::TuneEval&) {
    const double t = thread_cpu_now();
    if (batch_open) ingest.emplace_back(t, t);
    ingest.back().second = t;
    batch_open = false;
  };
  const tune::TuneReport report = tuner.run(c.tune);
  rep.wall_s = wall_now() - t0;
  rep.cpu_s = process_cpu_now() - cpu0;
  const double thread_end = thread_cpu_now();
  rep.csv = report.trajectory_csv();
  for (const auto& ev : report.trajectory) {
    rep.rows.push_back(ev.result);
    if (ev.stage == "saturation") ++rep.probes_to_knee;
  }
  // propose() #k proposes batch k; #k > 0 first ingests batch k-1. The
  // last one proposes nothing, and its span runs to the end of run().
  const std::size_t n = rep.batch_sizes.size();
  for (std::size_t k = 0; k <= n && ingest.size() == n; ++k) {
    const double start = k == 0 ? thread0 : ingest[k - 1].first;
    const double end = k == n                     ? thread_end
                       : rep.batch_sizes[k] >= 2 ? first_result[k]
                       : k == 0                  ? thread0
                                                 : ingest[k - 1].second;
    rep.proposer_s += end - start;
  }
  return rep;
}

/// Spec load, point expansion and elaboration of the first point: what
/// a campaign does before its first simulated cycle.
double setup_once(const Args& args) {
  const double t0 = wall_now();
  const Campaign c = load_campaign(args);
  const sweep::SweepPoint first = is_tune(args.workload)
                                      ? c.tune.config_point(0)
                                      : c.sweep.points().front();
  compiler::NocSpec spec;
  spec.name = first.label();
  spec.topo = first.build_topology();
  spec.net = first.net;
  const auto network = compiler::XpipesCompiler{}.build_simulation(spec);
  return wall_now() - t0;
}

/// Rows rendered as export lines (header dropped), so two row sets can
/// be compared line by line.
std::vector<std::string> export_lines(const std::vector<sweep::SweepResult>& rows,
                                      bool flow, bool vcs) {
  sweep::ResultTable table(rows.size());
  if (flow) table.mark_flow_axis();
  if (vcs) table.mark_vcs_axis();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    sweep::SweepResult r = rows[i];
    r.point.index = i;  // tune evals are addressed by evaluation order
    table.set(std::move(r));
  }
  std::vector<std::string> lines = split_lines(table.to_csv());
  lines.erase(lines.begin());
  return lines;
}

void write_spans(const std::string& path, const ReplicaPass& pass) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out.precision(17);
  out << "[\n";
  bool first = true;
  for (const PointTrace& t : pass.traces) {
    for (const Span& s : t.spans) {
      out << (first ? "" : ",\n") << "{\"trace\": " << s.trace_id
          << ", \"name\": \"" << kStageNames[s.stage] << "\", \"parent\": \""
          << (s.stage == kPoint ? "" : kStageNames[kStageParent[s.stage]])
          << "\", \"start\": " << s.start << ", \"end\": " << s.end << "}";
      first = false;
    }
  }
  out << "\n]\n";
}

/// Self time per stage summed over a pass: a span's duration minus the
/// part its child spans cover.
std::vector<double> self_times(const ReplicaPass& pass) {
  std::vector<double> self(kNumStages, 0.0);
  for (const PointTrace& t : pass.traces) {
    for (const Span& s : t.spans) {
      const double d = s.end - s.start;
      self[s.stage] += d;
      if (s.stage != kPoint) self[kStageParent[s.stage]] -= d;
    }
  }
  return self;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--jobs") a.jobs = std::max<std::size_t>(1, std::stoul(value));
    else if (key == "--spec-dir") a.spec_dir = value;
    else if (key == "--spans") a.spans_path = value;
    else throw std::runtime_error("unknown option " + key);
  }
  if (a.workload.empty()) throw std::runtime_error("--workload is required");
  return a;
}

int run(const Args& args) {
  const bool tune = is_tune(args.workload);
  const std::size_t jobs = args.jobs;

  // Set-up is sampled before every campaign repetition (at least once,
  // for up to 0.1 s), so its median spans the whole window, not just the
  // first moments of the process.
  std::vector<double> setup_s;
  auto sample_setup = [&] {
    double spent = 0.0;
    do {
      setup_s.push_back(setup_once(args));
      spent += setup_s.back();
    } while (spent < 0.1);
  };

  const Campaign campaign = load_campaign(args);
  auto one_rep = [&] {
    return tune ? tune_rep(campaign, jobs) : sweep_rep(campaign, jobs);
  };
  // A first, untimed repetition warms caches and the heap; it is the
  // reference the timed ones must reproduce byte for byte. Untraced
  // repetitions then fill the window; a traced run gives them half of it
  // and the traced replica the other half.
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const Rep ref = one_rep();

  // Export schema marks, as SweepRunner::run sets them from the spec.
  const bool flow = tune ? campaign.tune.sweeps_flow()
                         : (campaign.sweep.flows.size() > 1 ||
                            campaign.sweep.flows.front() != "ack_nack");
  const bool vcs = tune ? campaign.tune.sweeps_vcs()
                        : (campaign.sweep.vcss.size() > 1 ||
                           campaign.sweep.vcss.front() != 1);
  std::vector<sweep::SweepPoint> points;
  for (const auto& r : ref.rows) points.push_back(r.point);
  const std::vector<std::size_t> batches =
      tune ? ref.batch_sizes : std::vector<std::size_t>{points.size()};

  // Staged replica: the row-by-row reference. The tuner's hooks fire
  // only once a batch is done, so a tune run's per-point times come from
  // the replica: untraced, one pass follows every repetition, so there
  // are as many samples per point as repetitions.
  std::vector<ReplicaPass> passes;
  const bool replica_per_rep = tune && !args.trace;
  std::vector<Rep> timed;
  double window_s = 0.0;
  do {
    sample_setup();
    timed.push_back(one_rep());
    window_s += timed.back().wall_s;
    if (replica_per_rep) {
      passes.push_back(run_replica(points, batches, jobs, false));
      window_s += passes.back().wall_s;
    }
  } while (window_s * (timed.size() + 1) <= budget * timed.size());
  while (setup_s.size() < 3) sample_setup();

  // Otherwise one pass checks the rows; a traced run repeats it (with
  // spans) for the second half of the window.
  if (!replica_per_rep) {
    const double traced_start = wall_now();
    do {
      passes.push_back(run_replica(points, batches, jobs, args.trace));
    } while (args.trace && (wall_now() - traced_start) * (passes.size() + 1) <=
                               budget * passes.size());
  }

  // ---- correctness: every repetition exports the same bytes, and the
  // staged replica reproduces every row.
  bool deterministic = true;
  for (const Rep& r : timed) deterministic = deterministic && r.csv == ref.csv;
  const std::vector<std::string> campaign_lines =
      export_lines(ref.rows, flow, vcs);
  std::vector<std::string> errors;
  std::vector<std::string> row_digests;
  std::vector<std::size_t> failed_rows;
  bool replica_match = true;
  for (std::size_t i = 0; i < ref.rows.size(); ++i) {
    bool bad = !ref.rows[i].ok;
    if (bad) errors.push_back(ref.rows[i].point.label() + ": " + ref.rows[i].error);
    for (const ReplicaPass& p : passes) {
      if (export_lines({p.rows[i]}, flow, vcs).front() !=
          export_lines({ref.rows[i]}, flow, vcs).front()) {
        bad = true;
        replica_match = false;
      }
    }
    if (bad) failed_rows.push_back(i);
    row_digests.push_back(hex64(fnv1a(campaign_lines[i])).substr(0, 8));
  }

  // ---- per-point host time, one list per repetition: campaign hooks
  // for grids, replica passes for tune.
  std::vector<std::vector<double>> point_s;
  if (tune) {
    for (const ReplicaPass& p : passes) point_s.push_back(p.point_s);
  } else {
    for (const Rep& r : timed) point_s.push_back(r.point_s);
  }

  std::vector<double> wall_s, cpu_s;
  for (const Rep& r : timed) {
    wall_s.push_back(r.wall_s);
    cpu_s.push_back(r.cpu_s);
  }

  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\": " << json_string(args.workload)
     << ", \"seed\": " << args.seed << ", \"jobs\": " << jobs
     << ", \"attempted\": " << ref.rows.size()
     << ", \"deterministic\": " << (deterministic ? "true" : "false")
     << ", \"replica_match\": " << (replica_match ? "true" : "false")
     << ", \"export_digest\": \"" << hex64(fnv1a(ref.csv)) << "\""
     << ", \"setup_s\": " << json_numbers(setup_s)
     << ", \"wall_s\": " << json_numbers(wall_s)
     << ", \"cpu_s\": " << json_numbers(cpu_s)
     << ", \"point_s\": [";
  for (std::size_t i = 0; i < point_s.size(); ++i) {
    os << (i ? ", " : "") << json_numbers(point_s[i]);
  }
  os << "], \"peak_rss_mb\": " << peak_rss_mb();
  os << ", \"row_digests\": [";
  for (std::size_t i = 0; i < row_digests.size(); ++i) {
    os << (i ? ", " : "") << "\"" << row_digests[i] << "\"";
  }
  os << "], \"failed_rows\": [";
  for (std::size_t i = 0; i < failed_rows.size(); ++i) {
    os << (i ? ", " : "") << failed_rows[i];
  }
  os << "], \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    os << (i ? ", " : "") << json_string(errors[i]);
  }
  os << "]";

  if (args.trace) {
    // Per-layer samples: one value per traced pass (times) and the
    // counters of the first pass (identical in every pass).
    std::map<std::string, std::vector<double>> layer;
    for (const ReplicaPass& p : passes) {
      const std::vector<double> self = self_times(p);
      for (std::size_t s = 0; s < kNumStages; ++s) {
        layer[std::string("stage.") + kStageNames[s]].push_back(self[s]);
      }
      layer["traced_wall_s"].push_back(p.wall_s);
      double busy = 0.0;
      for (const double t : p.point_s) busy += t;
      layer["traced_busy_s"].push_back(busy);
    }
    for (const Rep& r : timed) layer["proposer_s"].push_back(r.proposer_s);
    Counters total;
    std::vector<std::string> wedged;
    for (std::size_t i = 0; i < passes.front().traces.size(); ++i) {
      total.add(passes.front().traces[i].counters);
      if (passes.front().traces[i].wedged) {
        wedged.push_back(points[i].label());
      }
    }
    const std::vector<std::pair<const char*, std::uint64_t>> counters = {
        {"points", total.points},
        {"cycles", total.cycles},
        {"leapt_cycles", total.leapt_cycles},
        {"drain_cycles", total.drain_cycles},
        {"wedged_points", total.wedged_points},
        {"link_flits", total.link_flits},
        {"link_retx", total.link_retx},
        {"switch_credit_stalls", total.switch_credit_stalls},
        {"flits_switched", total.flits_switched},
        {"switch_active_cycles", total.switch_active_cycles},
        {"switch_cycles", total.switch_cycles},
        {"ni_packets", total.ni_packets},
        {"ni_credit_stalls", total.ni_credit_stalls},
        {"txns_issued", total.txns_issued},
        {"txns_completed", total.txns_completed},
        {"probes_to_knee", ref.probes_to_knee},
    };
    os << ", \"layers\": {";
    bool first = true;
    for (const auto& [name, values] : layer) {
      os << (first ? "" : ", ") << json_string(name) << ": "
         << json_numbers(values);
      first = false;
    }
    os << "}, \"counters\": {";
    for (std::size_t i = 0; i < counters.size(); ++i) {
      os << (i ? ", " : "") << "\"" << counters[i].first
         << "\": " << counters[i].second;
    }
    os << "}, \"wedged\": [";
    for (std::size_t i = 0; i < wedged.size(); ++i) {
      os << (i ? ", " : "") << json_string(wedged[i]);
    }
    os << "]";
    if (!args.spans_path.empty()) write_spans(args.spans_path, passes.back());
  }
  os << "}";
  std::printf("%s\n", os.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 2;
  }
}
