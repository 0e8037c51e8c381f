// Layer tracing by link-time wrapping (GNU ld --wrap), for perfbench_traced.
//
// Every PB_WRAP line below names one public function of a layer by its
// mangled symbol; CMakeLists.txt passes --wrap=<symbol> for each, so every
// call into it from another translation unit (the benchmark, the Simulator,
// network.cpp, injector.cpp, ...) lands in __wrap_<symbol>, which opens a
// span and calls __real_<symbol>.  Calls inside the defining translation
// unit and inlined calls are not seen; README.md lists what that leaves
// unattributed.
//
// Spans nest on one stack: a layer's self time is its span minus the spans
// of wrapped calls nested inside it.  Functions called ~10^6 times or more
// (BackupManager::reservation) are counted, not timed.  The __real_ symbols
// are weak, so a function that disappears from the program still links; the
// run then reports zero calls for it, which run.py rejects.
#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <ostream>
#include <vector>

#include "core/analyzer.hpp"
#include "matrix/dense.hpp"
#include "net/backup.hpp"
#include "net/network.hpp"
#include "net/routing.hpp"
#include "sim/event_queue.hpp"
#include "sim/recorder.hpp"
#include "sim/recovery.hpp"
#include "topology/graph.hpp"
#include "topology/waxman.hpp"

namespace {

using Clock = std::chrono::steady_clock;

enum Layer : int {
  kRequest,
  kTerminate,
  kFailLink,
  kRepairLink,
  kRecovery,
  kRoutePrimary,
  kRouteBackup,
  kBackupUpdate,
  kEventQueue,
  kRecorder,
  kRecoveryDispatch,
  kAnalyze,
  kGth,
  kTopology,
  kNetworkCtor,
  kLayers
};

const char* const kLayerNames[kLayers] = {
    "net.request_connection", "net.terminate_connection", "net.fail_link",
    "net.repair_link",        "net.recovery",             "net.route.primary",
    "net.route.backup",       "net.backup.update",        "sim.event_queue",
    "sim.recorder",           "sim.recovery.dispatch",    "core.analyze",
    "matrix.gth",             "topology.generate",        "net.network_ctor"};

struct LayerStat {
  std::uint64_t calls = 0;
  double self_s = 0.0;
};

struct Frame {
  Layer layer;
  Clock::time_point start;
  double child_s;
};

LayerStat g_layers[kLayers];
std::vector<Frame> g_stack;
int g_paused = 0;
std::uint64_t g_reservation_calls = 0;
std::uint64_t g_primary_found = 0;
std::uint64_t g_backup_found = 0;
std::uint64_t g_events = 0;
std::vector<float> g_request_us;
std::vector<float> g_fail_us;

class Span {
 public:
  explicit Span(Layer layer, std::vector<float>* samples = nullptr)
      : active_(g_paused == 0), samples_(samples) {
    if (active_) g_stack.push_back({layer, Clock::now(), 0.0});
  }
  ~Span() {
    if (!active_) return;
    const Frame f = g_stack.back();
    g_stack.pop_back();
    const double d = std::chrono::duration<double>(Clock::now() - f.start).count();
    LayerStat& s = g_layers[f.layer];
    ++s.calls;
    s.self_s += d - f.child_s;
    if (!g_stack.empty()) g_stack.back().child_s += d;
    if (samples_ != nullptr) samples_->push_back(static_cast<float>(d * 1e6));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
  std::vector<float>* samples_;
};

bool counting() { return g_paused == 0; }

double p99(std::vector<float> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = (v.size() * 99 + 99) / 100;  // nearest rank
  return v[std::min(rank, v.size()) - 1];
}

}  // namespace

namespace trace {

Pause::Pause() { ++g_paused; }
Pause::~Pause() { --g_paused; }

void print_layers(std::ostream& out) {
  char buf[64];
  const auto num = [&](double v) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  };
  out << "{";
  for (int i = 0; i < kLayers; ++i)
    out << "\"" << kLayerNames[i] << ".calls\":" << g_layers[i].calls << ",\""
        << kLayerNames[i] << ".self_s\":" << num(g_layers[i].self_s) << ",";
  out << "\"net.request_connection.p99_us\":" << num(p99(g_request_us));
  out << ",\"net.fail_link.p99_us\":" << num(p99(g_fail_us));
  out << ",\"net.route.primary.found\":" << g_primary_found;
  out << ",\"net.route.backup.found\":" << g_backup_found;
  out << ",\"net.backup.reservation.calls\":" << g_reservation_calls;
  out << ",\"sim.event_queue.events\":" << g_events << "}";
}

}  // namespace trace

// ---- Wrappers ------------------------------------------------------------------

#define PB_REAL(sym, Ret, params) extern "C" Ret __real_##sym params __attribute__((weak));

// A timed passthrough: PB_WRAP(symbol, layer, return type, (params), (args)).
#define PB_WRAP(sym, layer, Ret, params, args) \
  PB_REAL(sym, Ret, params)                    \
  extern "C" Ret __wrap_##sym params {         \
    const Span span(layer);                    \
    return __real_##sym args;                  \
  }

using eqos::net::BackupManager;
using eqos::net::ConnectionId;
using eqos::net::Network;
using eqos::net::Router;
using eqos::sim::EventQueue;
using eqos::sim::EventTag;
using eqos::sim::TransitionRecorder;
using eqos::topology::Graph;
using eqos::topology::LinkId;
using eqos::topology::NodeId;
using eqos::topology::Path;
using OptPath = std::optional<Path>;
using Bits = eqos::util::DynamicBitset;

// net: the three connection events and the failure path.
PB_REAL(_ZN4eqos3net7Network18request_connectionEjjRKNS0_14ElasticQosSpecE,
        eqos::net::ArrivalOutcome,
        (Network*, NodeId, NodeId, const eqos::net::ElasticQosSpec&))
extern "C" eqos::net::ArrivalOutcome
__wrap__ZN4eqos3net7Network18request_connectionEjjRKNS0_14ElasticQosSpecE(
    Network* self, NodeId src, NodeId dst, const eqos::net::ElasticQosSpec& qos) {
  const Span span(kRequest, counting() ? &g_request_us : nullptr);
  return __real__ZN4eqos3net7Network18request_connectionEjjRKNS0_14ElasticQosSpecE(
      self, src, dst, qos);
}
PB_WRAP(_ZN4eqos3net7Network20terminate_connectionEm, kTerminate,
        eqos::net::TerminationReport, (Network * self, ConnectionId id), (self, id))
PB_REAL(_ZN4eqos3net7Network9fail_linkEj, eqos::net::FailureReport, (Network*, LinkId))
extern "C" eqos::net::FailureReport __wrap__ZN4eqos3net7Network9fail_linkEj(Network* self,
                                                                           LinkId link) {
  const Span span(kFailLink, counting() ? &g_fail_us : nullptr);
  return __real__ZN4eqos3net7Network9fail_linkEj(self, link);
}
PB_WRAP(_ZN4eqos3net7Network11repair_linkEj, kRepairLink, std::size_t,
        (Network * self, LinkId link), (self, link))
PB_WRAP(_ZN4eqos3net7NetworkC1ENS_8topology5GraphENS0_13NetworkConfigE, kNetworkCtor, void,
        (Network * self, Graph graph, eqos::net::NetworkConfig config),
        (self, std::move(graph), config))

// net: the recovery-plane entry points.
PB_WRAP(_ZN4eqos3net7Network22claim_recovery_channelEmRm, kRecovery, OptPath,
        (Network * self, ConnectionId id, std::size_t & consumed), (self, id, consumed))
PB_WRAP(_ZN4eqos3net7Network17complete_recoveryEmRKNS_8topology4PathEddb, kRecovery,
        Network::RecoveryCommit,
        (Network * self, ConnectionId id, const Path& patch, double ttr, double blackout,
         bool via_fallback),
        (self, id, patch, ttr, blackout, via_fallback))
PB_WRAP(_ZN4eqos3net7Network24complete_recovery_rescueEmdd, kRecovery, bool,
        (Network * self, ConnectionId id, double ttr, double blackout),
        (self, id, ttr, blackout))
PB_WRAP(_ZN4eqos3net7Network15drop_recoveringEmbbbbd, kRecovery, void,
        (Network * self, ConnectionId id, bool double_hit, bool was_active,
         bool deadline_missed, bool attempted_reestablish, double blackout),
        (self, id, double_hit, was_active, deadline_missed, attempted_reestablish, blackout))

// net: route search, with the share of searches that found a route.
PB_REAL(_ZNK4eqos3net6Router12find_primaryEjjd, OptPath,
        (const Router*, NodeId, NodeId, double))
extern "C" OptPath __wrap__ZNK4eqos3net6Router12find_primaryEjjd(const Router* self,
                                                                  NodeId src, NodeId dst,
                                                                  double bmin) {
  const Span span(kRoutePrimary);
  OptPath path = __real__ZNK4eqos3net6Router12find_primaryEjjd(self, src, dst, bmin);
  if (path && counting()) ++g_primary_found;
  return path;
}
PB_REAL(_ZNK4eqos3net6Router11find_backupEjjdRKNS_4util13DynamicBitsetEb, OptPath,
        (const Router*, NodeId, NodeId, double, const Bits&, bool))
extern "C" OptPath __wrap__ZNK4eqos3net6Router11find_backupEjjdRKNS_4util13DynamicBitsetEb(
    const Router* self, NodeId src, NodeId dst, double bmin, const Bits& primary,
    bool require_disjoint) {
  const Span span(kRouteBackup);
  OptPath path = __real__ZNK4eqos3net6Router11find_backupEjjdRKNS_4util13DynamicBitsetEb(
      self, src, dst, bmin, primary, require_disjoint);
  if (path && counting()) ++g_backup_found;
  return path;
}
PB_REAL(_ZNK4eqos3net6Router11find_backupERKNS1_11BackupQueryE, OptPath,
        (const Router*, const Router::BackupQuery&))
extern "C" OptPath __wrap__ZNK4eqos3net6Router11find_backupERKNS1_11BackupQueryE(
    const Router* self, const Router::BackupQuery& q) {
  const Span span(kRouteBackup);
  OptPath path = __real__ZNK4eqos3net6Router11find_backupERKNS1_11BackupQueryE(self, q);
  if (path && counting()) ++g_backup_found;
  return path;
}

// net: the backup ledger.  reservation() runs ~10^8 times on the torus, so
// it is only counted.
PB_REAL(_ZNK4eqos3net13BackupManager11reservationEj, double, (const BackupManager*, LinkId))
extern "C" double __wrap__ZNK4eqos3net13BackupManager11reservationEj(
    const BackupManager* self, LinkId l) {
  if (counting()) ++g_reservation_calls;
  return __real__ZNK4eqos3net13BackupManager11reservationEj(self, l);
}
PB_WRAP(_ZN4eqos3net13BackupManager3addEjmdRKNS_4util13DynamicBitsetE, kBackupUpdate, void,
        (BackupManager * self, LinkId l, ConnectionId id, double bmin, const Bits& primary),
        (self, l, id, bmin, primary))
PB_WRAP(_ZN4eqos3net13BackupManager6removeEjm, kBackupUpdate, void,
        (BackupManager * self, LinkId l, ConnectionId id), (self, l, id))
PB_WRAP(_ZNK4eqos3net13BackupManager16incremental_needEjdRKNS_4util13DynamicBitsetE,
        kBackupUpdate, double,
        (const BackupManager* self, LinkId l, double bmin, const Bits& primary),
        (self, l, bmin, primary))

// sim: the event queue.  Today the engine drives front_event/pop_front/
// insert; a Simulator owning the queue directly would call step/run_until/
// schedule instead, so both sets are wrapped.
PB_WRAP(_ZN4eqos3sim10EventQueue11front_eventEv, kEventQueue, const void*,
        (EventQueue * self), (self))
PB_REAL(_ZN4eqos3sim10EventQueue9pop_frontEv, void, (EventQueue*))
extern "C" void __wrap__ZN4eqos3sim10EventQueue9pop_frontEv(EventQueue* self) {
  const Span span(kEventQueue);
  if (counting()) ++g_events;
  __real__ZN4eqos3sim10EventQueue9pop_frontEv(self);
}
PB_WRAP(_ZN4eqos3sim10EventQueue6insertEdmmm, kEventQueue, void,
        (EventQueue * self, double time, std::uint64_t key, std::uint64_t a, std::uint64_t b),
        (self, time, key, a, b))
PB_WRAP(_ZN4eqos3sim10EventQueue7prepareEd, kEventQueue, void,
        (EventQueue * self, double horizon), (self, horizon))
PB_REAL(_ZN4eqos3sim10EventQueue4stepEv, bool, (EventQueue*))
extern "C" bool __wrap__ZN4eqos3sim10EventQueue4stepEv(EventQueue* self) {
  const Span span(kEventQueue);
  const bool ran = __real__ZN4eqos3sim10EventQueue4stepEv(self);
  if (ran && counting()) ++g_events;
  return ran;
}
PB_REAL(_ZN4eqos3sim10EventQueue9run_untilEd, std::size_t, (EventQueue*, double))
extern "C" std::size_t __wrap__ZN4eqos3sim10EventQueue9run_untilEd(EventQueue* self,
                                                                   double end_time) {
  const Span span(kEventQueue);
  const std::size_t ran = __real__ZN4eqos3sim10EventQueue9run_untilEd(self, end_time);
  if (counting()) g_events += ran;
  return ran;
}
PB_WRAP(_ZN4eqos3sim10EventQueue8scheduleEdNS0_8EventTagE, kEventQueue, void,
        (EventQueue * self, double time, EventTag tag), (self, time, tag))
PB_WRAP(_ZN4eqos3sim10EventQueue8scheduleEdNS0_8EventTagESt8functionIFvvEE, kEventQueue, void,
        (EventQueue * self, double time, EventTag tag, std::function<void()> action),
        (self, time, tag, std::move(action)))
PB_WRAP(_ZN4eqos3sim10EventQueue11schedule_inEdNS0_8EventTagE, kEventQueue, void,
        (EventQueue * self, double delay, EventTag tag), (self, delay, tag))
PB_WRAP(_ZN4eqos3sim10EventQueue11schedule_inEdNS0_8EventTagESt8functionIFvvEE, kEventQueue,
        void, (EventQueue * self, double delay, EventTag tag, std::function<void()> action),
        (self, delay, tag, std::move(action)))

// sim: the measurement recorder.
PB_WRAP(_ZN4eqos3sim18TransitionRecorder10advance_toEdRKNS_3net7NetworkE, kRecorder, void,
        (TransitionRecorder * self, double time, const Network& net), (self, time, net))
PB_WRAP(_ZN4eqos3sim18TransitionRecorder10on_arrivalERKNS_3net14ArrivalOutcomeERKNS2_7NetworkE,
        kRecorder, void,
        (TransitionRecorder * self, const eqos::net::ArrivalOutcome& o, const Network& net),
        (self, o, net))
PB_WRAP(
    _ZN4eqos3sim18TransitionRecorder14on_terminationERKNS_3net17TerminationReportERKNS2_7NetworkE,
    kRecorder, void,
    (TransitionRecorder * self, const eqos::net::TerminationReport& r, const Network& net),
    (self, r, net))
PB_WRAP(_ZN4eqos3sim18TransitionRecorder10on_failureERKNS_3net13FailureReportERKNS2_7NetworkE,
        kRecorder, void,
        (TransitionRecorder * self, const eqos::net::FailureReport& r, const Network& net),
        (self, r, net))
PB_WRAP(_ZNK4eqos3sim18TransitionRecorder9estimatesEdRKNS_3net7NetworkE, kRecorder,
        eqos::sim::ModelEstimates,
        (const TransitionRecorder* self, double end_time, const Network& net),
        (self, end_time, net))

// sim: the recovery control plane.
PB_WRAP(_ZN4eqos3sim13RecoveryPlane8dispatchERKNS0_8EventTagE, kRecoveryDispatch, void,
        (eqos::sim::RecoveryPlane * self, const EventTag& tag), (self, tag))
PB_WRAP(_ZN4eqos3sim13RecoveryPlane10on_failureERKNS_3net13FailureReportE, kRecoveryDispatch,
        void, (eqos::sim::RecoveryPlane * self, const eqos::net::FailureReport& r),
        (self, r))

// core / matrix: the chain solve.
PB_WRAP(_ZN4eqos4core7analyzeERKNS_3sim14ModelEstimatesERKNS1_14WorkloadConfigENS0_8FidelityEd,
        kAnalyze, eqos::core::AnalysisResult,
        (const eqos::sim::ModelEstimates& est, const eqos::sim::WorkloadConfig& wl,
         eqos::core::Fidelity fidelity, double smoothing),
        (est, wl, fidelity, smoothing))
PB_WRAP(_ZN4eqos6matrix16gth_steady_stateERKNS0_6MatrixE, kGth, eqos::matrix::Vector,
        (const eqos::matrix::Matrix& q), (q))
PB_WRAP(_ZN4eqos6matrix21gth_steady_state_dtmcERKNS0_6MatrixE, kGth, eqos::matrix::Vector,
        (const eqos::matrix::Matrix& p), (p))

// topology: graph generation (set-up).
PB_WRAP(_ZN4eqos8topology15generate_waxmanERKNS0_12WaxmanConfigEm, kTopology, Graph,
        (const eqos::topology::WaxmanConfig& config, std::uint64_t seed), (config, seed))
PB_WRAP(_ZN4eqos8topology14generate_torusEmm, kTopology, Graph,
        (std::size_t rows, std::size_t cols), (rows, cols))
