// The two DispatchCore decorators the harness places between the
// Simulator and the dispatch core under test.
//
//   Simulator → [ShiftRoster] → Probe → core
//
// where the core is a DispatchEngine, or a WindowExecutor in front of a
// ShardedDispatchEngine.
//
// Probe times every Handle call by event kind, paces window closes on a
// fixed wall-clock schedule (open loop) when asked to, and checks that each
// window's decision is a matching over the pending orders. ShiftRoster
// turns a shift-churn scenario's vehicle lifecycle into engine events: it
// retires empty vehicles whose shift (or on-duty dip) ended and re-announces
// them under the same id when the next one starts.
#ifndef DISPATCHBENCH_PROBE_H_
#define DISPATCHBENCH_PROBE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/dispatch_engine.h"
#include "core/engine_event.h"
#include "spans.h"

namespace dbench {

struct ProbeOptions {
  // > 0: window k is due at first_event + (k + 1) · pace_slot_s wall
  // seconds and the probe sleeps until then; a window that starts late
  // stays late (open loop). 0: a window is due when the simulator asks.
  double pace_slot_s = 0.0;
  // Config::max_orders_per_vehicle, the batch-size bound checked per window.
  int max_orders_per_vehicle = 3;
  // Span sink for traced days; null records nothing.
  SpanRecorder* spans = nullptr;
  // Self-test: duplicate one assignment of this window (by index) before
  // the matching check, which must then fail. -1 disables.
  int corrupt_window = -1;
};

class Probe : public fm::DispatchCore {
 public:
  // `inner` must outlive the probe.
  Probe(fm::DispatchCore* inner, const ProbeOptions& options);

  void Handle(fm::OrderPlaced event) override;
  void Handle(fm::VehicleStateUpdate event) override;
  void Handle(fm::OrderDelivered event) override;
  void Handle(fm::VehicleRetired event) override;
  fm::WindowResult Handle(const fm::WindowClosed& event) override;

  void set_observer(fm::WindowObserver observer) override {
    inner_->set_observer(std::move(observer));
  }
  std::size_t pending_orders() const override {
    return inner_->pending_orders();
  }
  fm::ThreadPool* thread_pool() const override {
    return inner_->thread_pool();
  }

  // One closed window, in wall-clock seconds.
  struct Window {
    double due_lateness_s = 0.0;  // how late the close started vs its slot
    double decision_s = 0.0;      // inner Handle(WindowClosed)
    double latency_s = 0.0;       // decision return − due time
    std::size_t orders = 0;       // orders placed into this window
  };
  const std::vector<Window>& windows() const { return windows_; }

  // Per-order latency samples (each window's latency once per order
  // placed into it).
  std::vector<double> OrderLatencies() const;

  Clock::time_point first_event() const { return first_event_; }
  double decide_seconds() const { return decide_s_; }
  double apply_seconds() const { return apply_s_; }
  double pacer_sleep_seconds() const { return sleep_s_; }
  std::size_t distinct_orders() const { return seen_orders_.size(); }

  // First failed check, or empty.
  const std::string& error() const { return error_; }

 private:
  void Touch();
  void Timed(const char* name, Clock::time_point start);
  void CheckWindow(const fm::WindowResult& result);
  void Fail(std::string message);

  fm::DispatchCore* inner_;
  ProbeOptions options_;

  bool started_ = false;
  Clock::time_point first_event_;
  double decide_s_ = 0.0;
  double apply_s_ = 0.0;
  double sleep_s_ = 0.0;
  std::size_t orders_this_window_ = 0;
  std::vector<Window> windows_;

  // Matching-check state: orders the engine holds unassigned, and each
  // vehicle's not-yet-picked-up orders as last announced (a reshuffle
  // strip returns those to the pool).
  std::unordered_set<fm::OrderId> seen_orders_;
  std::unordered_set<fm::OrderId> pending_;
  std::unordered_map<fm::VehicleId, std::vector<fm::OrderId>> unpicked_;
  std::string error_;
};

// Per-vehicle on-shift timeline of a stress scenario's event stream: the
// latest VehicleStateUpdate's on_duty flag at or before t, false after a
// VehicleRetired and before the first announcement.
class ShiftTimeline {
 public:
  explicit ShiftTimeline(const std::vector<fm::StampedEvent>& events);
  bool OnShift(fm::VehicleId vehicle, fm::Seconds t) const;

 private:
  std::unordered_map<fm::VehicleId, std::vector<std::pair<fm::Seconds, bool>>>
      transitions_;
};

class ShiftRoster : public fm::DispatchCore {
 public:
  // Window closes must follow the simulator's schedule: start + delta,
  // + 2·delta, ..., capped at hard_end. `inner` and `timeline` must outlive
  // the roster.
  ShiftRoster(fm::DispatchCore* inner, const ShiftTimeline* timeline,
              fm::Seconds start, fm::Seconds delta, fm::Seconds hard_end);

  void Handle(fm::OrderPlaced event) override { inner_->Handle(event); }
  void Handle(fm::VehicleStateUpdate event) override;
  void Handle(fm::OrderDelivered event) override { inner_->Handle(event); }
  void Handle(fm::VehicleRetired event) override { inner_->Handle(event); }
  fm::WindowResult Handle(const fm::WindowClosed& event) override;

  void set_observer(fm::WindowObserver observer) override {
    inner_->set_observer(std::move(observer));
  }
  std::size_t pending_orders() const override {
    return inner_->pending_orders();
  }
  fm::ThreadPool* thread_pool() const override {
    return inner_->thread_pool();
  }

  std::uint64_t retirements() const { return retirements_; }
  std::uint64_t announcements() const { return announcements_; }
  const std::string& error() const { return error_; }

 private:
  fm::DispatchCore* inner_;
  const ShiftTimeline* timeline_;
  fm::Seconds delta_;
  fm::Seconds hard_end_;
  fm::Seconds next_now_;
  std::unordered_set<fm::VehicleId> announced_;
  std::uint64_t retirements_ = 0;
  std::uint64_t announcements_ = 0;
  std::string error_;
};

}  // namespace dbench

#endif  // DISPATCHBENCH_PROBE_H_
