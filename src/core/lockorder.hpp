// lockorder.hpp — runtime lock-order validator for the tsdx mutex hierarchy.
//
// The thread-safety annotations in core/annotations.hpp prove *which lock*
// guards *which data*; they cannot prove that two locks are always taken in
// the same order. That second invariant — the lock *hierarchy* — is what
// this validator checks at runtime: every tsdx::Mutex carries a Rank, a
// thread may only acquire a mutex whose rank is strictly greater than every
// rank it already holds, and any inversion aborts the process with the
// acquisition stacks of both locks involved (the one being taken and the
// already-held one that outranks it).
//
// The hierarchy itself is documented in DESIGN.md §12 "Locking discipline";
// the Rank enum below is its executable form. Ranks are spaced by 10 so a
// new lock can slot between existing levels without renumbering.
//
// Cost model: when disabled (the default in release builds) every hook is a
// single relaxed atomic load and an early return — cheap enough to leave
// compiled into every build, the same posture as the fault injector
// (serve/fault/inject.hpp). When enabled, each acquire appends to a
// thread-local held-lock vector (a handful of entries deep in practice) and
// captures a raw backtrace; nothing is symbolized until a violation fires.
//
// Enablement, in precedence order:
//   1. set_enabled(true/false)          — programmatic, wins over the env.
//   2. TSDX_LOCK_ORDER=1 environment    — read once, at first hook.
//   3. default: off.
// Tests use ScopedEnable + set_violation_handler to assert on violations
// without dying (see tests/lockorder_test.cpp); CI's TSan job runs the
// chaos/stress suites with TSDX_LOCK_ORDER=1 so the documented hierarchy is
// continuously re-validated under real interleavings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace tsdx::lockorder {

/// The mutex hierarchy, outermost (acquired first) to innermost. A thread
/// holding a lock of rank R may only acquire locks of rank strictly greater
/// than R; two locks of equal rank may never be held together. See
/// DESIGN.md §12 for the prose version and the reasoning per level.
enum class Rank : std::uint32_t {
  kRouter = 2,            ///< Router lifecycle + pending count + timer heap;
                          ///< outermost of the whole hierarchy — the router
                          ///< drains/kills whole replica servers (rank 10+)
                          ///< while holding it
  kAdmission = 4,         ///< AdmissionController token buckets + in-flight
                          ///< shares (below kRouter: admission is consulted
                          ///< on the submit path, never the other way round)
  kReplica = 6,           ///< per-ManagedReplica health state machine; above
                          ///< kAdmission, below every InferenceServer lock so
                          ///< a probe may submit into a replica while holding
                          ///< its state lock. One replica lock at a time —
                          ///< equal ranks may never nest.
  kServerLifecycle = 10,  ///< InferenceServer teardown-done flag; no
                          ///< request resolves under it
  kQueue = 20,            ///< BoundedQueue request queue
  kServerPending = 30,    ///< InferenceServer accepted-request count
  kPlan = 43,             ///< tsdx::plan compiled-plan cache; below the par
                          ///< ranks because compilation traces a forward that
                          ///< fans out through tsdx::par while holding it
  kIndex = 45,            ///< tsdx::index vector stores (flat / IVF lists);
                          ///< below the par ranks because index scans fan
                          ///< out through tsdx::par while holding it
  kPoolJob = 50,          ///< tsdx::par fan-out serialization
  kPoolConfig = 60,       ///< tsdx::par pool sizing
  kPoolState = 70,        ///< tsdx::par job publication
  kPoolDone = 80,         ///< tsdx::par per-job completion latch
  kCircuit = 90,          ///< CircuitBreaker state machine
  kStats = 100,           ///< StatsCollector exact sample store
  kThreadPool = 110,      ///< serve::ThreadPool thread list
  kFaultInjector = 120,   ///< fault::Injector armed plan
  kSlo = 122,             ///< obs::SloEngine rolling windows + dump budget;
                          ///< below kRecorder/kRegistry/kTraceRing because an
                          ///< anomaly dump snapshots the recorder ring and
                          ///< span buffer while holding it
  kRecorder = 126,        ///< obs::Recorder flight-recorder ring
  kRegistry = 130,        ///< obs::Registry metric maps
  kTraceRing = 140,       ///< obs::trace span ring buffer
  kLeaf = 1000,           ///< default: must be the innermost lock held
};

/// Everything a violation report needs, handed to the installed handler.
/// `report` is the full human-readable text including both acquisition
/// stacks; the typed fields let tests assert on the specific pair.
struct Violation {
  const char* acquiring_name = nullptr;  ///< mutex being acquired
  Rank acquiring_rank = Rank::kLeaf;
  const char* held_name = nullptr;  ///< already-held mutex that outranks it
  Rank held_rank = Rank::kLeaf;
  bool same_mutex = false;  ///< recursive acquisition of one mutex
  std::string report;       ///< formatted report with both stacks
};

/// Violation sink. The default handler logs the report and calls
/// std::abort() — an inversion is a latent deadlock and must not be ridden
/// past. Returns the previously installed handler so tests can restore it.
using Handler = void (*)(const Violation&);
Handler set_violation_handler(Handler handler);

/// Is the validator checking acquisitions right now?
bool enabled();

/// Programmatic override of TSDX_LOCK_ORDER (set_enabled wins).
void set_enabled(bool on);

/// RAII enable for tests: enables on construction, restores the previous
/// state on destruction.
class ScopedEnable {
 public:
  ScopedEnable();
  ~ScopedEnable();
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool previous_;
};

/// Hook: this thread is about to acquire `mutex`. Called by tsdx::Mutex
/// *before* the underlying lock so an inversion is reported even when the
/// interleaving didn't happen to deadlock this run. No-op when disabled.
void on_acquire(const void* mutex, const char* name, Rank rank);

/// Hook: this thread released `mutex`. Also used by CondVar around a wait
/// (the wait releases the mutex; re-entry goes through on_acquire again).
void on_release(const void* mutex);

/// Locks this thread currently holds according to the tracker (test/debug
/// surface; always answers, even when disabled — disabled means the set
/// stays empty).
std::size_t held_count();

}  // namespace tsdx::lockorder
