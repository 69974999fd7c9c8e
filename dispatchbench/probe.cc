#include "probe.h"

#include <algorithm>
#include <cstdio>
#include <thread>

namespace dbench {

Probe::Probe(fm::DispatchCore* inner, const ProbeOptions& options)
    : inner_(inner), options_(options) {}

void Probe::Touch() {
  if (started_) return;
  started_ = true;
  first_event_ = Clock::now();
}

void Probe::Timed(const char* name, Clock::time_point start) {
  const Clock::time_point end = Clock::now();
  apply_s_ += SecondsBetween(start, end);
  if (options_.spans != nullptr) options_.spans->Add(name, "core", start, end);
}

void Probe::Fail(std::string message) {
  if (error_.empty()) error_ = std::move(message);
}

void Probe::Handle(fm::OrderPlaced event) {
  Touch();
  const fm::OrderId id = event.order.id;
  if (!seen_orders_.insert(id).second) {
    Fail("order " + std::to_string(id) + " placed twice");
  }
  pending_.insert(id);
  ++orders_this_window_;
  const Clock::time_point start = Clock::now();
  inner_->Handle(std::move(event));
  Timed("core.Handle(OrderPlaced)", start);
}

void Probe::Handle(fm::VehicleStateUpdate event) {
  Touch();
  std::vector<fm::OrderId>& unpicked = unpicked_[event.snapshot.id];
  unpicked.clear();
  for (const fm::Order& o : event.snapshot.unpicked) unpicked.push_back(o.id);
  const Clock::time_point start = Clock::now();
  inner_->Handle(std::move(event));
  Timed("core.Handle(VehicleStateUpdate)", start);
}

void Probe::Handle(fm::OrderDelivered event) {
  Touch();
  const Clock::time_point start = Clock::now();
  inner_->Handle(event);
  Timed("core.Handle(OrderDelivered)", start);
}

void Probe::Handle(fm::VehicleRetired event) {
  Touch();
  unpicked_.erase(event.vehicle);
  const Clock::time_point start = Clock::now();
  inner_->Handle(event);
  Timed("core.Handle(VehicleRetired)", start);
}

fm::WindowResult Probe::Handle(const fm::WindowClosed& event) {
  Touch();
  Window w;
  w.orders = orders_this_window_;
  orders_this_window_ = 0;
  Clock::time_point due = Clock::now();
  if (options_.pace_slot_s > 0.0) {
    const double offset_s =
        options_.pace_slot_s * static_cast<double>(windows_.size() + 1);
    due = first_event_ + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(offset_s));
    const Clock::time_point now = Clock::now();
    if (now < due) {
      std::this_thread::sleep_until(due);
      const Clock::time_point woke = Clock::now();
      sleep_s_ += SecondsBetween(now, woke);
      if (options_.spans != nullptr) {
        options_.spans->Add("pacer.sleep", "pacer", now, woke);
      }
    } else {
      w.due_lateness_s = SecondsBetween(due, now);
    }
  }
  const Clock::time_point start = Clock::now();
  fm::WindowResult result = inner_->Handle(event);
  const Clock::time_point end = Clock::now();
  if (options_.spans != nullptr) {
    options_.spans->Add("core.Handle(WindowClosed)", "core", start, end);
  }
  w.decision_s = SecondsBetween(start, end);
  w.latency_s = SecondsBetween(due, end);
  decide_s_ += w.decision_s;
  if (static_cast<int>(windows_.size()) == options_.corrupt_window &&
      !result.decision.assignments.empty()) {
    fm::WindowResult corrupted = result;
    corrupted.decision.assignments.push_back(
        corrupted.decision.assignments.front());
    CheckWindow(corrupted);
  } else {
    CheckWindow(result);
  }
  windows_.push_back(w);
  return result;
}

void Probe::CheckWindow(const fm::WindowResult& result) {
  if (!error_.empty()) return;
  const std::string where =
      "window " + std::to_string(windows_.size()) + ": ";
  for (fm::OrderId id : result.rejected) {
    if (pending_.erase(id) == 0) {
      return Fail(where + "rejected order " + std::to_string(id) +
                  " was not pending");
    }
  }
  // A reshuffle strip puts the vehicle's unpicked orders back in the pool.
  for (fm::VehicleId v : result.reshuffled_vehicles) {
    auto it = unpicked_.find(v);
    if (it == unpicked_.end()) continue;
    for (fm::OrderId id : it->second) pending_.insert(id);
    it->second.clear();
  }
  std::unordered_set<fm::VehicleId> vehicles;
  std::unordered_set<fm::OrderId> assigned;
  for (const auto& item : result.decision.assignments) {
    if (!vehicles.insert(item.vehicle).second) {
      return Fail(where + "vehicle " + std::to_string(item.vehicle) +
                  " got two batches");
    }
    if (item.orders.empty() ||
        static_cast<int>(item.orders.size()) >
            options_.max_orders_per_vehicle) {
      return Fail(where + "batch of " + std::to_string(item.orders.size()) +
                  " orders for vehicle " + std::to_string(item.vehicle));
    }
    for (const fm::Order& o : item.orders) {
      if (!assigned.insert(o.id).second) {
        return Fail(where + "order " + std::to_string(o.id) +
                    " assigned twice");
      }
      if (pending_.count(o.id) == 0) {
        return Fail(where + "assigned order " + std::to_string(o.id) +
                    " was not pending");
      }
    }
  }
  for (const auto& item : result.decision.assignments) {
    std::vector<fm::OrderId>& unpicked = unpicked_[item.vehicle];
    for (const fm::Order& o : item.orders) {
      pending_.erase(o.id);
      unpicked.push_back(o.id);
    }
  }
  for (const auto& r : result.reinstatements) {
    if (pending_.erase(r.order.id) == 0) {
      return Fail(where + "reinstated order " + std::to_string(r.order.id) +
                  " was not pending");
    }
    unpicked_[r.vehicle].push_back(r.order.id);
  }
}

std::vector<double> Probe::OrderLatencies() const {
  std::vector<double> samples;
  for (const Window& w : windows_) samples.insert(samples.end(), w.orders,
                                                  w.latency_s);
  return samples;
}

ShiftTimeline::ShiftTimeline(const std::vector<fm::StampedEvent>& events) {
  for (const fm::StampedEvent& e : events) {
    if (const auto* u = std::get_if<fm::VehicleStateUpdate>(&e.event)) {
      transitions_[u->snapshot.id].emplace_back(e.timestamp, u->on_duty);
    } else if (const auto* r = std::get_if<fm::VehicleRetired>(&e.event)) {
      transitions_[r->vehicle].emplace_back(e.timestamp, false);
    }
  }
}

bool ShiftTimeline::OnShift(fm::VehicleId vehicle, fm::Seconds t) const {
  auto it = transitions_.find(vehicle);
  if (it == transitions_.end()) return false;
  const auto& list = it->second;  // sorted by time: the stream is canonical
  auto after = std::upper_bound(
      list.begin(), list.end(), t,
      [](fm::Seconds value, const std::pair<fm::Seconds, bool>& entry) {
        return value < entry.first;
      });
  return after != list.begin() && std::prev(after)->second;
}

ShiftRoster::ShiftRoster(fm::DispatchCore* inner, const ShiftTimeline* timeline,
                         fm::Seconds start, fm::Seconds delta,
                         fm::Seconds hard_end)
    : inner_(inner),
      timeline_(timeline),
      delta_(delta),
      hard_end_(hard_end),
      next_now_(std::min(start + delta, hard_end)) {}

void ShiftRoster::Handle(fm::VehicleStateUpdate event) {
  const fm::VehicleId id = event.snapshot.id;
  const bool on_shift = timeline_->OnShift(id, next_now_);
  const bool empty =
      event.snapshot.picked.empty() && event.snapshot.unpicked.empty();
  if (!on_shift && empty) {
    // Off shift with nothing on board: leave the fleet (once).
    if (announced_.erase(id) > 0) {
      ++retirements_;
      inner_->Handle(fm::VehicleRetired{id});
    }
    return;
  }
  // On shift, or off shift but still finishing deliveries (invisible to
  // the policy, still tracked by the engine).
  if (announced_.insert(id).second) ++announcements_;
  event.on_duty = event.on_duty && on_shift;
  inner_->Handle(std::move(event));
}

fm::WindowResult ShiftRoster::Handle(const fm::WindowClosed& event) {
  if (event.now != next_now_ && error_.empty()) {
    error_ = "roster expected a window close at " + std::to_string(next_now_) +
             ", got " + std::to_string(event.now);
  }
  next_now_ = std::min(event.now + delta_, hard_end_);
  return inner_->Handle(event);
}

}  // namespace dbench
