// perfbench: end-to-end benchmark driver for the elastic-QoS simulator.
//
// Runs one workload (see README.md) in whole rounds of cells until the time
// budget is spent, checks every cell's outputs against invariants the
// benchmark recomputes from public observers, and prints one JSON object
// with per-cell timings, work counts and a digest of the simulated outputs.
// perfbench/run.py turns that into the benchmark's metrics.
//
// Built twice: `perfbench` (untraced) and `perfbench_traced`, the same
// program linked with the layer wrappers of trace.cpp, which adds a
// "layers" section to the output.
//
//   perfbench --workload <name> --seed <n> [--seconds <s>] [--rounds <n>]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <iostream>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "core/experiment.hpp"
#include "fault/scenario.hpp"
#include "net/network.hpp"
#include "sim/recorder.hpp"
#include "sim/recovery.hpp"
#include "sim/simulator.hpp"
#include "topology/regular.hpp"
#include "topology/waxman.hpp"
#include "util/rng.hpp"

#ifdef PERFBENCH_TRACED
#include "trace.hpp"
#endif

namespace {

using namespace eqos;
using Clock = std::chrono::steady_clock;

// Earliest timestamp the process takes: set-up time is measured from here.
const Clock::time_point g_process_start = Clock::now();

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- Paper constants (kept here, not shared with bench/) -------------------

constexpr std::uint64_t kTopologySeed = 7;
constexpr std::uint64_t kWorkloadSeed = 4242;
constexpr double kRate = 1e-3;  // lambda = mu

net::ElasticQosSpec paper_qos() {
  net::ElasticQosSpec q;
  q.bmin_kbps = 100.0;
  q.bmax_kbps = 500.0;
  q.increment_kbps = 50.0;
  q.utility = 1.0;
  return q;
}

sim::WorkloadConfig paper_workload(std::uint64_t seed) {
  sim::WorkloadConfig wl;
  wl.qos = paper_qos();
  wl.arrival_rate = kRate;
  wl.termination_rate = kRate;
  wl.failure_rate = 0.0;
  wl.seed = seed;
  return wl;
}

topology::Graph waxman_graph() {
  return topology::generate_waxman({100, 0.33, 0.20, true}, kTopologySeed);
}

// Inputs of (run seed, round, cell): distinct streams, same seed same inputs.
std::uint64_t input_seed(std::uint64_t run_seed, std::size_t round, std::size_t cell) {
  const std::uint64_t s = util::Rng::substream_seed(kWorkloadSeed, run_seed);
  return util::Rng::substream_seed(util::Rng::substream_seed(s, round), cell);
}

// ---- Correctness checks ------------------------------------------------------

/// Collects failed checks of one cell; a cell with any failure fails.
struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool close_to(double a, double b, double abs_tol) { return std::abs(a - b) <= abs_tol; }

/// pi >= 0, sum pi = 1, pi Q ~ 0 with Q rebuilt from the chain parameters by
/// the Section 3.2 rates, and E[B] = sum pi_i (bmin + i delta).
void check_chain(const core::AnalysisResult& a, const char* which, Checks& c) {
  const markov::ChainParameters& p = a.parameters;
  const std::size_t n = p.num_states();
  const matrix::Vector& pi = a.steady_state;
  c.expect(pi.size() == n, std::string(which) + ": pi has wrong size");
  if (pi.size() != n) return;
  double sum = 0.0;
  double eb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    c.expect(pi[i] >= -1e-12, std::string(which) + ": negative pi");
    sum += pi[i];
    eb += pi[i] * (p.bmin_kbps + static_cast<double>(i) * p.increment_kbps);
  }
  c.expect(close_to(sum, 1.0, 1e-9), std::string(which) + ": sum pi = " + num(sum));
  c.expect(close_to(eb, a.average_bandwidth_kbps, 1e-9 * eb),
           std::string(which) + ": E[B] " + num(a.average_bandwidth_kbps) +
               " != sum pi_i b_i " + num(eb));
  if (a.degenerate) return;  // point mass on the occupancy mode, no chain

  const matrix::Matrix& f = p.failure_move ? *p.failure_move : p.arrival_move;
  const double pf_term = p.p_direct_termination ? *p.p_direct_termination : p.p_direct;
  std::vector<double> q(n * n, 0.0);
  double scale = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double out = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double rate = p.arrival_rate * p.p_direct * p.arrival_move(i, j) +
                          p.failure_rate * p.p_direct * f(i, j) +
                          p.arrival_rate * p.p_indirect * p.indirect_move(i, j) +
                          p.termination_rate * pf_term * p.termination_move(i, j);
      q[i * n + j] = rate;
      out += rate;
    }
    q[i * n + i] = -out;
    scale = std::max(scale, out);
  }
  double residual = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    double r = 0.0;
    for (std::size_t i = 0; i < n; ++i) r += pi[i] * q[i * n + j];
    residual = std::max(residual, std::abs(r));
  }
  c.expect(residual <= 1e-9 * scale,
           std::string(which) + ": |pi Q| = " + num(residual) + " vs rate " + num(scale));
}

/// Ledgers, bandwidth bounds, conservation counts and the audit of a
/// network the benchmark holds.
void check_network(const net::Network& net, const sim::RecoveryPlane* plane, Checks& c) {
  const std::size_t links = net.graph().num_links();
  std::vector<double> committed(links, 0.0);
  std::vector<double> granted(links, 0.0);
  std::size_t out_of_range = 0;
  for (const net::ConnectionId id : net.active_ids()) {
    const net::DrConnection& conn = net.connection(id);
    if (conn.recovering) continue;  // holds no primary resources
    const double b = conn.reserved_kbps();
    if (b < conn.qos.bmin_kbps - 1e-9 || b > conn.qos.bmax_kbps + 1e-9) ++out_of_range;
    for (const topology::LinkId l : conn.primary.links) {
      committed[l] += conn.qos.bmin_kbps;
      granted[l] += static_cast<double>(conn.extra_quanta) * conn.qos.increment_kbps;
    }
  }
  c.expect(out_of_range == 0,
           std::to_string(out_of_range) + " connections outside [bmin, bmax]");
  std::size_t bad_min = 0, bad_grant = 0, over_admission = 0, over_elastic = 0, failed = 0;
  for (topology::LinkId l = 0; l < links; ++l) {
    const net::LinkState& s = net.link_state(l);
    const double tol = 1e-6 * s.capacity();
    if (!close_to(s.committed_min(), committed[l], tol)) ++bad_min;
    if (!close_to(s.elastic_granted(), granted[l], tol)) ++bad_grant;
    if (s.committed_min() + s.backup_reserved() > s.capacity() + tol) ++over_admission;
    if (s.committed_min() + s.elastic_granted() > s.capacity() + tol) ++over_elastic;
    if (s.failed()) ++failed;
  }
  c.expect(bad_min == 0, std::to_string(bad_min) + " links: committed_min != sum bmin");
  c.expect(bad_grant == 0,
           std::to_string(bad_grant) + " links: elastic_granted != sum extra*delta");
  c.expect(over_admission == 0,
           std::to_string(over_admission) + " links: committed_min + backup_reserved > C");
  c.expect(over_elastic == 0,
           std::to_string(over_elastic) + " links: committed_min + elastic_granted > C");

  const net::NetworkStats& st = net.stats();
  c.expect(st.accepted - st.terminated - st.connections_dropped == net.num_active(),
           "accepted - terminated - dropped != active");
  c.expect(st.failures_injected - st.repairs == failed,
           "failures - repairs != links failed (" + std::to_string(failed) + ")");

  const net::NetworkConfig& cfg = net.config();
  std::size_t bad_ttr = 0;
  for (const double ttr : st.recovery_times) {
    const bool ok = plane != nullptr
                        ? ttr >= cfg.recovery_detect_min - 1e-9 &&
                              ttr <= cfg.recovery_deadline + 1e-9
                        : std::isfinite(ttr) && ttr >= cfg.recovery_detect_time - 1e-9;
    if (!ok) ++bad_ttr;
  }
  c.expect(bad_ttr == 0, std::to_string(bad_ttr) + " recovery times out of range");
  if (plane != nullptr) {
    const sim::RecoveryPlaneStats& rp = plane->stats();
    c.expect(rp.severed == rp.recovered + rp.dropped + plane->in_flight(),
             "severed != recovered + dropped + in flight");
  }
  try {
    net.audit();
  } catch (const std::exception& e) {
    c.expect(false, std::string("audit: ") + e.what());
  }
}

/// Checks an ExperimentResult exposes (run_experiment keeps its Network).
void check_experiment(const core::ExperimentResult& r, const core::ExperimentConfig& cfg,
                      Checks& c) {
  const sim::WorkloadConfig& wl = cfg.workload;
  check_chain(r.paper_analysis, "paper chain", c);
  check_chain(r.refined_analysis, "refined chain", c);
  const net::NetworkStats& st = r.network_stats;
  c.expect(st.accepted - st.terminated - st.connections_dropped == r.active_at_end,
           "accepted - terminated - dropped != active");
  c.expect(r.sim_mean_bandwidth_kbps >= wl.qos.bmin_kbps - 1e-9 &&
               r.sim_mean_bandwidth_kbps <= wl.qos.bmax_kbps + 1e-9,
           "sim E[B] outside [bmin, bmax]");
  std::size_t bad_ttr = 0;
  for (const double ttr : st.recovery_times)
    if (!(std::isfinite(ttr) && ttr >= cfg.network.recovery_detect_time - 1e-9)) ++bad_ttr;
  c.expect(bad_ttr == 0, std::to_string(bad_ttr) + " recovery times out of range");
}

// ---- Cells -------------------------------------------------------------------

struct CellResult {
  std::string name;
  std::size_t round = 0;
  std::vector<std::string> failures;  // empty: the cell passed
  double populate_s = 0.0;
  double churn_s = 0.0;
  double analyze_s = 0.0;
  std::size_t populate_attempts = 0;
  std::size_t churn_events = 0;
  net::NetworkStats net_stats;
  sim::RecoveryPlaneStats rp_stats;
  double sim_kbps = 0.0;
  double markov_kbps = 0.0;
  std::string digest;  // every simulated output, for traced-run identity
};

std::size_t churn_events(const sim::SimulationStats& s) {
  return s.arrival_events + s.termination_events + s.failure_events + s.repair_events;
}

std::string digest_of(const CellResult& r, const sim::SimulationStats& ss,
                      const core::AnalysisResult& paper,
                      const core::AnalysisResult& refined) {
  const net::NetworkStats& n = r.net_stats;
  std::ostringstream out;
  out << num(r.sim_kbps) << ' ' << num(paper.average_bandwidth_kbps) << ' '
      << num(refined.average_bandwidth_kbps);
  for (const double p : paper.steady_state) out << ' ' << num(p);
  for (const std::size_t v :
       {n.requests, n.accepted, n.rejected_no_primary, n.rejected_no_backup, n.terminated,
        n.failures_injected, n.repairs, n.backups_activated, n.connections_dropped,
        n.backups_reestablished, n.backups_evicted, n.unprotected_victims,
        n.reestablished_pair, n.reestablished_degraded, n.quanta_adjustments,
        n.survived_via_backup_set, n.drop_causes.total(), ss.arrival_events,
        ss.termination_events, ss.failure_events, ss.repair_events,
        ss.populate_attempts, ss.populate_accepted})
    out << ' ' << v;
  for (const std::uint64_t v : {r.rp_stats.severed, r.rp_stats.signals_sent,
                                r.rp_stats.signals_lost, r.rp_stats.retries,
                                r.rp_stats.fallbacks, r.rp_stats.recovered,
                                r.rp_stats.dropped})
    out << ' ' << v;
  double ttr = 0.0;
  for (const double t : n.recovery_times) ttr += t;
  out << ' ' << n.recovery_times.size() << ' ' << num(ttr);
  // FNV-1a keeps the output line short; the text itself is deterministic.
  std::uint64_t h = 1469598103934665603ULL;
  for (const char ch : out.str()) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ULL;
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Runs `body`, turning an exception into a failed check.
template <typename Body>
void guarded(CellResult& r, Body&& body) {
  try {
    body();
  } catch (const std::exception& e) {
    r.failures.push_back(std::string("threw: ") + e.what());
  }
}

/// A sweep cell through core::run_experiment.
CellResult run_sweep_cell(const topology::Graph& graph, const core::ExperimentConfig& cfg,
                          std::string name) {
  CellResult r;
  r.name = std::move(name);
  guarded(r, [&] {
    const core::ExperimentResult x = core::run_experiment(graph, cfg);
#ifdef PERFBENCH_TRACED
    const trace::Pause pause;
#endif
    r.populate_s = x.timings.populate_seconds;
    r.churn_s = x.timings.warmup_seconds + x.timings.measure_seconds;
    r.analyze_s = x.timings.analyze_seconds;
    r.populate_attempts = x.attempted;
    r.churn_events = churn_events(x.sim_stats);
    r.net_stats = x.network_stats;
    r.sim_kbps = x.sim_mean_bandwidth_kbps;
    r.markov_kbps = x.analytic_paper_kbps;
    r.digest = digest_of(r, x.sim_stats, x.paper_analysis, x.refined_analysis);
    Checks c;
    check_experiment(x, cfg, c);
    r.failures = std::move(c.failures);
  });
  return r;
}

/// A cell driven through sim::Simulator: populate, load the scenario, warm
/// up, then run the recorded window (`events`, then `steps`), then analyze.
struct SimCell {
  net::NetworkConfig network;
  sim::WorkloadConfig workload;
  const fault::FaultScenario* scenario = nullptr;
  std::size_t populate = 0;
  std::size_t warmup_events = 0;
  /// Workload events after warm-up, run before the time steps.
  std::size_t events = 0;
  std::size_t steps = 0;
  double step_time = 0.0;
  /// Audit after every step, so a fault is caught where it appears.
  bool audit_steps = false;
};

// Workload events between audits in an audited warm-up.
constexpr std::size_t kAuditChunk = 25;

CellResult run_sim_cell(const topology::Graph& graph, const SimCell& cell, std::string name,
                        const std::function<void()>& on_setup_done) {
  CellResult r;
  r.name = std::move(name);
  guarded(r, [&] {
    net::Network network(graph, cell.network);
    sim::Simulator simulator(network, cell.workload);
    if (on_setup_done) on_setup_done();

    Clock::time_point t0 = Clock::now();
    simulator.populate(cell.populate);
    r.populate_s = since(t0);
    r.populate_attempts = cell.populate;

    t0 = Clock::now();
    if (cell.scenario != nullptr) simulator.load_scenario(*cell.scenario);
    const std::size_t events_before = churn_events(simulator.stats());
    r.churn_s = since(t0);
    const auto audit_now = [&](const char* where) {
#ifdef PERFBENCH_TRACED
      const trace::Pause pause;
#endif
      try {
        network.audit();
      } catch (const std::exception& e) {
        throw std::runtime_error(std::string("audit ") + where + " (t = " +
                                 num(simulator.now()) + "): " + e.what());
      }
    };
    // Warm-up in chunks when auditing, so a fault stops the cell early.
    const std::size_t chunk = cell.audit_steps ? kAuditChunk : cell.warmup_events;
    for (std::size_t done = 0; done < cell.warmup_events; done += chunk) {
      t0 = Clock::now();
      simulator.run_events(std::min(chunk, cell.warmup_events - done));
      r.churn_s += since(t0);
      if (cell.audit_steps) audit_now("in warm-up");
    }
    t0 = Clock::now();
    sim::TransitionRecorder recorder(cell.workload.qos, simulator.now());
    simulator.attach_recorder(&recorder);
    r.churn_s += since(t0);
    if (cell.events > 0) {
      t0 = Clock::now();
      simulator.run_events(cell.events);
      r.churn_s += since(t0);
    }
    double t = simulator.now();
    for (std::size_t s = 0; s < cell.steps; ++s) {
      t += cell.step_time;
      t0 = Clock::now();
      simulator.run_until(t);
      r.churn_s += since(t0);
      if (cell.audit_steps) audit_now("after step");
    }
    simulator.attach_recorder(nullptr);
    r.churn_events = churn_events(simulator.stats()) - events_before;

    t0 = Clock::now();
    const sim::ModelEstimates est = recorder.estimates(simulator.now(), network);
    const core::AnalysisResult paper =
        core::analyze(est, cell.workload, core::Fidelity::kPaper);
    const core::AnalysisResult refined =
        core::analyze(est, cell.workload, core::Fidelity::kRefined);
    r.analyze_s = since(t0);

#ifdef PERFBENCH_TRACED
    const trace::Pause pause;
#endif
    r.net_stats = network.stats();
    if (simulator.recovery() != nullptr) r.rp_stats = simulator.recovery()->stats();
    r.sim_kbps = est.mean_bandwidth_kbps;
    r.markov_kbps = paper.average_bandwidth_kbps;
    r.digest = digest_of(r, simulator.stats(), paper, refined);
    Checks c;
    check_chain(paper, "paper chain", c);
    check_chain(refined, "refined chain", c);
    check_network(network, simulator.recovery(), c);
    r.failures = std::move(c.failures);
  });
  return r;
}

// ---- Workloads -----------------------------------------------------------------

/// One workload: builds its inputs once (set-up), then runs rounds of cells.
struct Workload {
  /// Runs round `round` of the workload's cells.  `on_setup_done` must be
  /// called once the first cell is ready for its first connection request.
  std::function<std::vector<CellResult>(std::size_t round, const std::function<void()>&)>
      run_round;
};

core::ExperimentConfig sweep_config(std::size_t connections, std::uint64_t seed,
                                    std::size_t warmup, std::size_t measure) {
  core::ExperimentConfig cfg;
  cfg.workload = paper_workload(seed);
  cfg.target_connections = connections;
  cfg.warmup_events = warmup;
  cfg.measure_events = measure;
  return cfg;
}

// Largest sim-vs-Markov gap accepted on fig2 cells; the measured gaps of the
// paper's seed stay under 3.5% (at 2500 connections).
constexpr double kFig2MarkovTolerance = 0.08;
// Sim E[B] may rise this much between consecutive loads (sampling noise of
// the 1500-event window where the curve is flat near bmax).
constexpr double kFig2MonotoneTolerance = 0.01;

Workload fig2_arrivals(std::uint64_t seed) {
  auto graph = std::make_shared<topology::Graph>(waxman_graph());
  return {[graph, seed](std::size_t round, const std::function<void()>& setup_done) {
    static const std::size_t loads[] = {250, 1000, 2000, 3000, 4000, 6000, 8000};
    std::vector<CellResult> cells;
    setup_done();
    for (std::size_t i = 0; i < std::size(loads); ++i) {
      cells.push_back(run_sweep_cell(*graph, sweep_config(loads[i], input_seed(seed, round, i), 300, 1500),
                                     "n" + std::to_string(loads[i])));
      CellResult& c = cells.back();
      if (!c.failures.empty()) continue;
      const double gap = std::abs(c.sim_kbps - c.markov_kbps) / c.sim_kbps;
      if (gap > kFig2MarkovTolerance)
        c.failures.push_back("sim " + num(c.sim_kbps) + " vs markov " + num(c.markov_kbps) +
                             " differ by more than " + num(kFig2MarkovTolerance));
      if (i > 0 && cells[i - 1].sim_kbps > 0.0 &&
          c.sim_kbps > cells[i - 1].sim_kbps * (1.0 + kFig2MonotoneTolerance))
        c.failures.push_back("sim E[B] rose with load: " + num(cells[i - 1].sim_kbps) +
                             " -> " + num(c.sim_kbps));
    }
    return cells;
  }};
}

Workload fig4_failures(std::uint64_t seed) {
  auto graph = std::make_shared<topology::Graph>(waxman_graph());
  return {[graph, seed](std::size_t round, const std::function<void()>& setup_done) {
    std::vector<CellResult> cells;
    setup_done();
    std::size_t i = 0;
    for (const std::size_t load : {2000, 3000}) {
      for (const double gamma : {1e-3, 1e-2}) {
        core::ExperimentConfig cfg = sweep_config(load, input_seed(seed, round, i++), 150, 750);
        cfg.workload.failure_rate = gamma;
        cfg.workload.repair_rate = 1e-2;
        char name[48];
        std::snprintf(name, sizeof name, "n%zu_g%.0e", load, gamma);
        cells.push_back(run_sweep_cell(*graph, cfg, name));
      }
    }
    return cells;
  }};
}

Workload torus_failures(std::uint64_t seed) {
  auto graph = std::make_shared<topology::Graph>(topology::generate_torus(250, 400));
  // 1024 strided per-link failure processes with exponential auto-repair.
  auto scenario = std::make_shared<fault::FaultScenario>();
  const std::size_t stride = graph->num_links() / 1024;
  for (std::size_t l = 0; l < graph->num_links() && scenario->stochastic().per_link_rates.size() < 1024;
       l += stride)
    scenario->stochastic().per_link_rates.emplace_back(static_cast<topology::LinkId>(l), 2e-6);
  scenario->stochastic().repair.kind = fault::RepairDistribution::kExponential;
  scenario->stochastic().repair.rate = 1e-2;
  scenario->stochastic().auto_repair = true;
  return {[graph, scenario, seed](std::size_t round, const std::function<void()>& setup_done) {
    SimCell cell;
    cell.workload = paper_workload(input_seed(seed, round, 0));
    cell.scenario = scenario.get();
    cell.populate = 200;
    cell.events = 1000;
    return std::vector<CellResult>{run_sim_cell(*graph, cell, "torus", setup_done)};
  }};
}

/// Shuffled link list cut into SRLGs of three, with Poisson group bursts.
fault::FaultScenario srlg_scenario(const topology::Graph& graph, std::uint64_t shuffle_seed) {
  constexpr std::size_t k = 3;
  std::vector<topology::LinkId> links(graph.num_links());
  std::iota(links.begin(), links.end(), topology::LinkId{0});
  util::Rng rng(shuffle_seed);
  rng.shuffle(links);
  fault::FaultScenario scenario;
  for (std::size_t i = 0; i < links.size(); i += k) {
    const std::size_t end = std::min(i + k, links.size());
    scenario.define_group("srlg" + std::to_string(i / k),
                          {links.begin() + static_cast<std::ptrdiff_t>(i),
                           links.begin() + static_cast<std::ptrdiff_t>(end)});
  }
  scenario.stochastic().group_failure_rate = 0.01;
  scenario.stochastic().repair.kind = fault::RepairDistribution::kExponential;
  scenario.stochastic().repair.rate = 1.0 / 40.0;
  scenario.stochastic().auto_repair = true;
  return scenario;
}

Workload srlg_recovery(std::uint64_t seed) {
  auto graph = std::make_shared<topology::Graph>(waxman_graph());
  // The segment cell replays fixed inputs (the paper seeds): it trips a
  // known kSegment fault on them, so it fails the same way on every run.
  auto fixed = std::make_shared<fault::FaultScenario>(srlg_scenario(*graph, kTopologySeed ^ 3));
  return {[graph, fixed, seed](std::size_t round, const std::function<void()>& setup_done) {
    const std::uint64_t s = input_seed(seed, round, 0);
    const fault::FaultScenario seeded = srlg_scenario(*graph, s ^ 3);
    const struct {
      const char* name;
      net::BackupScheme scheme;
    } schemes[] = {{"single", net::BackupScheme::kSingle},
                   {"dual", net::BackupScheme::kDualDisjoint},
                   {"segment", net::BackupScheme::kSegment}};
    std::vector<CellResult> cells;
    for (const auto& sc : schemes) {
      const bool is_fixed = sc.scheme == net::BackupScheme::kSegment;
      SimCell cell;
      cell.network.second_failure_policy = net::SecondFailurePolicy::kReestablish;
      cell.network.backup_scheme = sc.scheme;
      cell.network.srlg_policy = net::SrlgPolicy::kAvoid;
      cell.network.recovery_protocol = true;
      cell.network.recovery_signal_loss_prob = 0.2;
      cell.workload = paper_workload(is_fixed ? kWorkloadSeed : s);
      cell.scenario = is_fixed ? fixed.get() : &seeded;
      cell.populate = 2000;
      cell.warmup_events = 100;
      cell.steps = 8;
      cell.step_time = 2000.0;  // ~20 bursts per step
      cell.audit_steps = true;
      cells.push_back(run_sim_cell(*graph, cell, sc.name, cells.empty() ? setup_done : nullptr));
    }
    return cells;
  }};
}

// ---- Output ----------------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

void print_cell(std::ostream& out, const CellResult& r) {
  const net::NetworkStats& n = r.net_stats;
  out << "{\"round\":" << r.round << ",\"name\":" << json_string(r.name)
      << ",\"ok\":" << (r.failures.empty() ? "true" : "false") << ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    out << (i ? "," : "") << json_string(r.failures[i]);
  out << "],\"populate_s\":" << num(r.populate_s) << ",\"churn_s\":" << num(r.churn_s)
      << ",\"analyze_s\":" << num(r.analyze_s)
      << ",\"populate_attempts\":" << r.populate_attempts
      << ",\"churn_events\":" << r.churn_events << ",\"sim_kbps\":" << num(r.sim_kbps)
      << ",\"markov_kbps\":" << num(r.markov_kbps) << ",\"digest\":" << json_string(r.digest)
      << ",\"requests\":" << n.requests << ",\"accepted\":" << n.accepted
      << ",\"backups_activated\":" << n.backups_activated
      << ",\"connections_dropped\":" << n.connections_dropped
      << ",\"quanta_adjustments\":" << n.quanta_adjustments
      << ",\"signals_sent\":" << r.rp_stats.signals_sent
      << ",\"retries\":" << r.rp_stats.retries << ",\"fallbacks\":" << r.rp_stats.fallbacks
      << "}";
}

[[noreturn]] void usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <fig2_arrivals|fig4_failures|torus_failures|"
               "srlg_recovery> --seed <n> [--seconds <s>] [--rounds <n>]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 10.0;
  std::size_t rounds = 0;  // 0: as many whole rounds as fit in `seconds`
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload_name = value;
      } else if (arg == "--seed") {
        seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        seconds = std::stod(value);
      } else if (arg == "--rounds") {
        rounds = std::stoull(value);
      } else {
        usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_seed) usage("--seed is required");

  Workload workload;
  if (workload_name == "fig2_arrivals") {
    workload = fig2_arrivals(seed);
  } else if (workload_name == "fig4_failures") {
    workload = fig4_failures(seed);
  } else if (workload_name == "torus_failures") {
    workload = torus_failures(seed);
  } else if (workload_name == "srlg_recovery") {
    workload = srlg_recovery(seed);
  } else {
    usage(("unknown workload '" + workload_name + "'").c_str());
  }

  double setup_s = -1.0;
  const auto setup_done = [&] {
    if (setup_s < 0.0) setup_s = since(g_process_start);
  };
  std::vector<CellResult> cells;
  std::vector<double> round_wall;
  const Clock::time_point start = Clock::now();
  for (std::size_t round = 0;; ++round) {
    std::vector<CellResult> batch = workload.run_round(round, setup_done);
    double wall = 0.0;
    for (CellResult& c : batch) {
      c.round = round;
      wall += c.populate_s + c.churn_s + c.analyze_s;
      cells.push_back(std::move(c));
    }
    round_wall.push_back(wall);
    if (rounds > 0) {
      if (round + 1 >= rounds) break;
      continue;
    }
    // Start another round only if it is expected to finish in the budget.
    const double elapsed = since(start);
    if (elapsed + elapsed / static_cast<double>(round + 1) > seconds) break;
  }

  rusage usage_stats{};
  getrusage(RUSAGE_SELF, &usage_stats);
  std::ostream& out = std::cout;
  out << "{\"workload\":" << json_string(workload_name) << ",\"seed\":" << seed
      << ",\"setup_s\":" << num(setup_s)
      << ",\"peak_rss_mb\":" << num(static_cast<double>(usage_stats.ru_maxrss) / 1024.0)
      << ",\"run_s\":" << num(since(start)) << ",\"round_wall_s\":[";
  for (std::size_t i = 0; i < round_wall.size(); ++i) out << (i ? "," : "") << num(round_wall[i]);
  out << "],\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out << ",";
    print_cell(out, cells[i]);
  }
  out << "]";
#ifdef PERFBENCH_TRACED
  out << ",\"layers\":";
  trace::print_layers(out);
#endif
  out << "}" << std::endl;
  return 0;
}
