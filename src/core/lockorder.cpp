#include "core/lockorder.hpp"

#include <atomic>
#include <cstdlib>
#include <sstream>

#include "obs/log.hpp"

#if defined(__has_include)
#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define TSDX_LOCKORDER_HAVE_BACKTRACE 1
#endif
#endif

namespace tsdx::lockorder {

namespace {

constexpr std::size_t kMaxFrames = 24;

/// One held lock: identity, rank, and the raw acquisition backtrace (not
/// symbolized until a violation actually fires).
struct Held {
  const void* mutex = nullptr;
  const char* name = nullptr;
  Rank rank = Rank::kLeaf;
  void* frames[kMaxFrames] = {};
  int frame_count = 0;
};

/// Locks one thread can hold at once and still be checked: real nesting is
/// 2-3 deep. Acquisitions beyond it go unrecorded (and so unchecked).
constexpr std::size_t kMaxHeld = 32;

/// Per-thread held-lock stack. Linear, not a set: lock nesting is shallow
/// and release order matches LIFO closely enough that a linear scan wins
/// over any hashed structure. A fixed array, not a vector, so it owns no
/// heap memory and has no thread-exit destructor: exit-time static
/// destructors (the intra-op pool's locks its config mutex) run after the
/// main thread's thread_local destructors and must still find it usable.
struct HeldStack {
  Held entries[kMaxHeld];
  std::size_t size = 0;
};
thread_local HeldStack t_held;

/// -1 = unresolved (consult TSDX_LOCK_ORDER on first hook), else 0/1.
std::atomic<int> g_enabled{-1};

std::atomic<Handler> g_handler{nullptr};

int resolve_enabled() {
  const char* env = std::getenv("TSDX_LOCK_ORDER");
  const int on =
      (env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0'))
          ? 1
          : 0;
  int expected = -1;
  // Racing first readers resolve the same environment value; whichever store
  // wins, the value is identical.
  g_enabled.compare_exchange_strong(expected, on, std::memory_order_relaxed);
  return g_enabled.load(std::memory_order_relaxed);
}

int capture_stack(void** frames) {
#ifdef TSDX_LOCKORDER_HAVE_BACKTRACE
  return backtrace(frames, static_cast<int>(kMaxFrames));
#else
  (void)frames;
  return 0;
#endif
}

void append_stack(std::ostringstream& os, void* const* frames, int count) {
#ifdef TSDX_LOCKORDER_HAVE_BACKTRACE
  if (count <= 0) {
    os << "    <no backtrace captured>\n";
    return;
  }
  char** symbols = backtrace_symbols(frames, count);
  for (int i = 0; i < count; ++i) {
    os << "    #" << i << " ";
    if (symbols != nullptr && symbols[i] != nullptr) {
      os << symbols[i];
    } else {
      os << frames[i];
    }
    os << "\n";
  }
  std::free(symbols);
#else
  (void)frames;
  (void)count;
  os << "    <backtrace unavailable on this platform>\n";
#endif
}

void report_violation(const Held& held, const void* mutex, const char* name,
                      Rank rank, void* const* frames, int frame_count) {
  Violation violation;
  violation.acquiring_name = name;
  violation.acquiring_rank = rank;
  violation.held_name = held.name;
  violation.held_rank = held.rank;
  violation.same_mutex = held.mutex == mutex;

  std::ostringstream os;
  if (violation.same_mutex) {
    os << "lock-order violation: recursive acquisition of `" << name
       << "` (rank " << static_cast<std::uint32_t>(rank)
       << ") — this mutex is not recursive, this is a self-deadlock\n";
  } else {
    os << "lock-order violation: acquiring `" << name << "` (rank "
       << static_cast<std::uint32_t>(rank) << ") while holding `" << held.name
       << "` (rank " << static_cast<std::uint32_t>(held.rank)
       << ") — ranks must be strictly increasing; see DESIGN.md §12\n";
  }
  os << "  stack acquiring `" << name << "`:\n";
  append_stack(os, frames, frame_count);
  os << "  stack that acquired `" << held.name << "`:\n";
  append_stack(os, held.frames, held.frame_count);
  violation.report = os.str();

  const Handler handler = g_handler.load(std::memory_order_acquire);
  if (handler != nullptr) {
    handler(violation);
    return;
  }
  TSDX_LOG_WARN("lockorder", violation.report);
  std::abort();
}

}  // namespace

Handler set_violation_handler(Handler handler) {
  return g_handler.exchange(handler, std::memory_order_acq_rel);
}

bool enabled() {
  const int on = g_enabled.load(std::memory_order_relaxed);
  return (on == -1 ? resolve_enabled() : on) != 0;
}

void set_enabled(bool on) {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

ScopedEnable::ScopedEnable() : previous_(enabled()) { set_enabled(true); }

ScopedEnable::~ScopedEnable() { set_enabled(previous_); }

void on_acquire(const void* mutex, const char* name, Rank rank) {
  if (!enabled()) return;
  Held entry;
  entry.mutex = mutex;
  entry.name = name;
  entry.rank = rank;
  entry.frame_count = capture_stack(entry.frames);
  // Check every held lock, not just the most recent: release order is not
  // guaranteed LIFO, so the outranking lock may sit anywhere in the set.
  for (std::size_t i = 0; i < t_held.size; ++i) {
    const Held& held = t_held.entries[i];
    if (held.mutex == mutex || held.rank >= rank) {
      report_violation(held, mutex, name, rank, entry.frames,
                       entry.frame_count);
      // A test handler that chose not to abort: skip recording so the
      // violating acquisition doesn't cascade into follow-on reports.
      return;
    }
  }
  if (t_held.size < kMaxHeld) t_held.entries[t_held.size++] = entry;
}

void on_release(const void* mutex) {
  // Scan newest-first: releases are LIFO in the common RAII case.
  for (std::size_t i = t_held.size; i-- > 0;) {
    if (t_held.entries[i].mutex == mutex) {
      for (std::size_t j = i + 1; j < t_held.size; ++j) {
        t_held.entries[j - 1] = t_held.entries[j];
      }
      --t_held.size;
      return;
    }
  }
}

std::size_t held_count() { return t_held.size; }

}  // namespace tsdx::lockorder
