// inject.hpp — deterministic fault injection for the serving stack.
//
// Recovery paths that are only exercised by accident are recovery paths that
// don't work. This header gives tests and benches a way to *schedule* the
// accidents: a seeded FaultPlan names exactly which extract_batch dispatch
// throws, which dispatch stalls, and whether the next checkpoint save gets
// one byte flipped — so `chaos_test` can drive worker fault recovery, the
// circuit breaker, and checkpoint CRC rejection down a reproducible script
// (same plan, same failures, same recovery, every run, under TSan).
//
// Design constraints:
//   * Compiled in always, inert unless armed. The hooks are a mutex-guarded
//     counter bump on paths that already cost a model forward pass; there is
//     no build-flavor divergence between what CI chaos-tests and what ships.
//   * Header-only with inline state, deliberately: the hook sites live in
//     two different static libraries (tsdx_serve for extract_batch,
//     tsdx_nn for checkpoint saves), and a header-only injector lets
//     nn/serialize.cpp consume the plan without tsdx_nn link-depending on
//     the serve layer (which sits *above* it in the dependency DAG).
//   * Thread-safe: worker threads hit on_extract_batch concurrently while a
//     test arms/disarms from the main thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/annotations.hpp"

namespace tsdx::serve::fault {

/// SplitMix64 — the repo's standard seed mixer; used to derive the corrupted
/// checkpoint byte offset deterministically from FaultPlan::seed.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The fault thrown by an armed plan out of extract_batch. Typed so chaos
/// tests can assert that a failed future carries an *injected* fault and not
/// an incidental model error.
class InjectedFaultError : public std::runtime_error {
 public:
  explicit InjectedFaultError(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
};

/// The fault a killed replica throws out of every dispatch from its kill
/// point on. Derives from InjectedFaultError so generic "was this injected?"
/// assertions keep working; typed separately so router tests can tell a
/// hard-down replica from a one-shot fault.
class ReplicaKilledError : public InjectedFaultError {
 public:
  explicit ReplicaKilledError(const std::string& what_arg)
      : InjectedFaultError(what_arg) {}
};

/// A replica-scoped fault script. `domain` matches the dispatching server's
/// ServerConfig::fault_domain (the Router wires it to the replica index), so
/// chaos tests can murder replica 2 of a fleet without touching its
/// neighbours. Call indices are 1-based and count only that domain's
/// dispatches since the plan was armed.
struct ReplicaPlan {
  int domain = 0;
  /// Hard-down from this per-domain dispatch index on: every dispatch with
  /// index >= kill_from_call throws ReplicaKilledError until the plan is
  /// disarmed (the replica stays dead — unlike throw_on_extract_calls, which
  /// is a one-dispatch fault). 0 disables.
  std::uint64_t kill_from_call = 0;
  /// Per-domain dispatch indices that stall for `stall` before proceeding
  /// (a wedged-but-alive replica: the dispatch then completes normally).
  std::vector<std::uint64_t> stall_on_calls;
  std::chrono::microseconds stall{0};
};

/// A deterministic script of faults. Call indices are 1-based and count
/// every extract_batch dispatch process-wide from the moment the plan is
/// armed (arming resets the counter).
struct FaultPlan {
  /// Seeds derived randomness (currently: which checkpoint byte to flip).
  std::uint64_t seed = 0;
  /// extract_batch dispatches that throw InjectedFaultError.
  std::vector<std::uint64_t> throw_on_extract_calls;
  /// extract_batch dispatches that stall for `extract_delay` first.
  std::vector<std::uint64_t> delay_on_extract_calls;
  std::chrono::microseconds extract_delay{0};
  /// Replica-scoped kill/stall scripts, keyed by fault domain. Domains are
  /// counted independently of the process-wide indices above; both apply.
  std::vector<ReplicaPlan> replica_plans;
  /// Flip one seed-chosen byte of the next checkpoint save (after its CRC
  /// footer is computed, so the corruption is CRC-detectable on load).
  bool corrupt_next_checkpoint = false;
};

/// Process-wide injector the hook sites consult. Inert (two branch-free
/// loads under a mutex) unless a plan is armed.
class Injector {
 public:
  static Injector& instance() {
    static Injector injector;
    return injector;
  }

  /// A server with no assigned fault domain (ServerConfig::fault_domain's
  /// default): its dispatches count process-wide but match no ReplicaPlan.
  static constexpr int kNoDomain = -1;

  void arm(FaultPlan plan) TSDX_EXCLUDES(mutex_) {
    LockGuard lock(mutex_);
    plan_ = std::move(plan);
    armed_ = true;
    extract_calls_ = 0;
    domain_calls_.clear();
  }

  void disarm() TSDX_EXCLUDES(mutex_) {
    LockGuard lock(mutex_);
    armed_ = false;
    plan_ = FaultPlan{};
  }

  bool armed() const TSDX_EXCLUDES(mutex_) {
    LockGuard lock(mutex_);
    return armed_;
  }

  /// Dispatches observed since the plan was armed.
  std::uint64_t extract_calls() const TSDX_EXCLUDES(mutex_) {
    LockGuard lock(mutex_);
    return extract_calls_;
  }

  /// Dispatches observed on one fault domain since the plan was armed.
  std::uint64_t domain_calls(int domain) const TSDX_EXCLUDES(mutex_) {
    LockGuard lock(mutex_);
    const auto it = domain_calls_.find(domain);
    return it == domain_calls_.end() ? 0 : it->second;
  }

  /// Hook: call immediately before an extract_batch dispatch. May sleep
  /// (injected latency) and/or throw InjectedFaultError per the armed plan.
  /// `domain` identifies the dispatching replica (ServerConfig::fault_domain;
  /// kNoDomain for standalone servers) for the replica-scoped plans.
  void on_extract_batch(int domain = kNoDomain) TSDX_EXCLUDES(mutex_) {
    std::chrono::microseconds delay{0};
    std::uint64_t call = 0;
    std::uint64_t dcall = 0;
    {
      LockGuard lock(mutex_);
      if (!armed_) return;
      call = ++extract_calls_;
      if (domain != kNoDomain) dcall = ++domain_calls_[domain];
      for (std::uint64_t d : plan_.delay_on_extract_calls) {
        if (d == call) delay = plan_.extract_delay;
      }
      if (domain != kNoDomain) {
        for (const ReplicaPlan& rp : plan_.replica_plans) {
          if (rp.domain != domain) continue;
          for (std::uint64_t s : rp.stall_on_calls) {
            if (s == dcall && rp.stall > delay) delay = rp.stall;
          }
        }
      }
    }
    // Sleep outside the lock so a stalled worker cannot block arm()/stats.
    if (delay.count() > 0) sleep_for(delay);
    {
      LockGuard lock(mutex_);
      if (!armed_) return;
      if (domain != kNoDomain) {
        for (const ReplicaPlan& rp : plan_.replica_plans) {
          if (rp.domain == domain && rp.kill_from_call != 0 &&
              dcall >= rp.kill_from_call) {
            throw ReplicaKilledError(
                "replica domain " + std::to_string(domain) +
                " killed from dispatch #" + std::to_string(rp.kill_from_call) +
                " (this is dispatch #" + std::to_string(dcall) + ")");
          }
        }
      }
      for (std::uint64_t t : plan_.throw_on_extract_calls) {
        if (t == call) {
          throw InjectedFaultError("injected fault on extract_batch call #" +
                                   std::to_string(call));
        }
      }
    }
  }

  /// Hook: checkpoint save asks whether to corrupt this write. One-shot —
  /// consuming clears the flag so only a single save is affected. Returns
  /// the plan seed through `seed_out` when corruption is due.
  bool consume_checkpoint_corruption(std::uint64_t& seed_out)
      TSDX_EXCLUDES(mutex_) {
    LockGuard lock(mutex_);
    if (!armed_ || !plan_.corrupt_next_checkpoint) return false;
    plan_.corrupt_next_checkpoint = false;
    seed_out = plan_.seed;
    return true;
  }

 private:
  Injector() = default;
  static void sleep_for(std::chrono::microseconds delay) {
    std::this_thread::sleep_for(delay);
  }

  mutable Mutex mutex_{"serve.fault_injector",
                       lockorder::Rank::kFaultInjector};
  FaultPlan plan_ TSDX_GUARDED_BY(mutex_);
  bool armed_ TSDX_GUARDED_BY(mutex_) = false;
  std::uint64_t extract_calls_ TSDX_GUARDED_BY(mutex_) = 0;
  /// Per-domain dispatch counters for the replica-scoped plans.
  std::map<int, std::uint64_t> domain_calls_ TSDX_GUARDED_BY(mutex_);
};

/// RAII armer for tests: arms on construction, disarms on scope exit so a
/// failing test cannot leak an armed plan into its neighbours.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultPlan plan) {
    Injector::instance().arm(std::move(plan));
  }
  ~ScopedFaultPlan() { Injector::instance().disarm(); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

}  // namespace tsdx::serve::fault
