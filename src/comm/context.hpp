#pragma once
// Shared state backing one communicator of the thread-based message-passing
// runtime (the environment's substitute for MPI; see DESIGN.md §1).
//
// A Context is shared by the P rank-threads of one communicator. Collectives
// are built from a generation barrier plus a pointer-exchange slot array:
// each rank posts pointers to its buffers, a barrier publishes them, every
// rank reads what it needs, and a second barrier retires the slots. The
// mutex/condition-variable barrier establishes the happens-before edges that
// make the cross-thread buffer reads race-free.
//
// Every context shares its world's Monitor (comm/monitor.hpp): all blocking
// waits observe the sticky abort flag (throwing AbortedError instead of
// hanging once a rank has died) and honor the optional watchdog deadline
// (throwing TimeoutError with a park report when a wait exceeds it).

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "comm/monitor.hpp"
#include "comm/schedule_check.hpp"

namespace rahooi::comm {

/// Pointers one rank publishes for the duration of a collective.
struct SlotEntry {
  const void* in = nullptr;
  void* out = nullptr;
  const std::int64_t* meta = nullptr;
  std::int64_t value = 0;
};

/// A tagged point-to-point message (payload copied on send, CP.31).
struct Message {
  int source = 0;
  int tag = 0;
  std::vector<std::byte> payload;
};

class Context {
 public:
  /// Prefer create(): it registers the context with its monitor so abort
  /// can wake waits. Direct construction is kept for trivial single-rank
  /// contexts that never block.
  explicit Context(int size, std::shared_ptr<Monitor> monitor = nullptr);

  /// Makes a context attached to `monitor` (a fresh Monitor when null) so
  /// raise_abort() wakes its waits. Used by Runtime (world) and split
  /// (children share the parent world's monitor).
  static std::shared_ptr<Context> create(
      int size, std::shared_ptr<Monitor> monitor = nullptr);

  int size() const { return size_; }

  const std::shared_ptr<Monitor>& monitor() const { return monitor_; }

  /// Which rendezvous a barrier_wait is: the entry barrier right after
  /// posting (peers may never arrive — a dead rank must release us via
  /// AbortedError), or a later phase/exit barrier of the same collective.
  /// Every participant of a phase barrier already passed the entry barrier
  /// and is in non-blocking compute, so it is guaranteed to arrive; a phase
  /// barrier therefore ignores the abort flag and waits for completion.
  /// That guarantee is what keeps posted buffers alive while peers read
  /// them: bailing out of an exit barrier on abort would unwind the poster's
  /// stack under a peer still copying from its slot (use-after-free).
  enum class BarrierPhase { entry, exit };

  /// Blocks until all `size()` ranks arrive (sense via generation counter).
  /// For entry barriers, throws AbortedError once the world's abort flag is
  /// up (on entry or while blocked); phase barriers complete regardless so
  /// the caller's buffers outlive all peer reads. Either kind throws
  /// TimeoutError when the armed watchdog expires.
  void barrier_wait(BarrierPhase phase = BarrierPhase::entry);

  /// Publish this rank's pointers for the in-flight collective. Only valid
  /// between barriers; the slot array is reused across collectives.
  void post(int rank, SlotEntry entry) { slots_[rank] = entry; }

  const SlotEntry& slot(int rank) const { return slots_[rank]; }

  /// Blocking tagged send/recv through per-rank mailboxes. recv is
  /// abort-aware and watchdog-bounded like barrier_wait.
  void send_bytes(int dest, int source, int tag, const void* data,
                  std::size_t bytes);
  void recv_bytes(int self, int source, int tag, void* data,
                  std::size_t bytes);

  /// Split support: the group leader (smallest parent rank in the new
  /// group) deposits the child context at its own index; members collect it.
  void deposit_child(int leader_rank, std::shared_ptr<Context> child);
  std::shared_ptr<Context> collect_child(int leader_rank) const;

  /// Wakes every wait on this context (abort propagation; called by the
  /// monitor after raising the abort flag).
  void wake_all();

  /// Collective-schedule sanitizer entry, called by every Comm collective's
  /// CollectiveScope before its first rendezvous. Disabled fast path (the
  /// default) is a single relaxed atomic load; enabled, it runs the
  /// fingerprint cross-validation rendezvous of schedule_check.hpp and
  /// throws ScheduleDivergenceError on divergence.
  void schedule_check(int rank, const SchedFingerprint& fp) {
    if (size_ == 1 || !monitor_->comm_check()) return;
    sched_.check(*this, rank, fp);
  }

 private:
  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Message> queue;
  };

  /// Builds the watchdog diagnostic, raises the world abort, and throws
  /// TimeoutError. Called from a wait that exceeded the deadline.
  [[noreturn]] void watchdog_expired(const char* where);

  int size_;
  std::shared_ptr<Monitor> monitor_;
  ScheduleChecker sched_;

  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  std::uint64_t barrier_generation_ = 0;

  std::vector<SlotEntry> slots_;
  std::vector<std::shared_ptr<Context>> children_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
};

}  // namespace rahooi::comm
