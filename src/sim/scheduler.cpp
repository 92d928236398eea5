#include "sim/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "obs/event_log.hpp"

namespace pandarus::sim {

struct Scheduler::EventHandle::State {
  Callback callback;
  bool cancelled = false;
  bool fired = false;
};

bool Scheduler::EventHandle::cancel() noexcept {
  if (!state_ || state_->cancelled || state_->fired) return false;
  state_->cancelled = true;
  state_->callback = nullptr;  // release captures eagerly
  return true;
}

bool Scheduler::EventHandle::pending() const noexcept {
  return state_ && !state_->cancelled && !state_->fired;
}

Scheduler::Scheduler()
    : ev_scheduled_(&obs::Registry::global().counter(
          "pandarus_sim_events_scheduled_total",
          "Events pushed onto the simulation heap")),
      ev_fired_(&obs::Registry::global().counter(
          "pandarus_sim_events_fired_total",
          "Events whose callback actually ran")),
      ev_cancelled_(&obs::Registry::global().counter(
          "pandarus_sim_events_cancelled_total",
          "Cancelled events skipped when popped")),
      heap_size_(&obs::Registry::global().gauge(
          "pandarus_sim_heap_size",
          "Live size of the simulation event heap (last observed)")) {}

Scheduler::EventHandle Scheduler::schedule_at(SimTime t, Callback fn) {
  auto state = std::make_shared<EventHandle::State>();
  state->callback = std::move(fn);
  heap_.push_back(Entry{std::max(t, now_), next_seq_++, state});
  std::push_heap(heap_.begin(), heap_.end(), EntryCompare{});
  ev_scheduled_->inc();
  heap_size_->set(static_cast<std::int64_t>(heap_.size()));
  return EventHandle(std::move(state));
}

Scheduler::EventHandle Scheduler::schedule_after(SimDuration delay,
                                                 Callback fn) {
  return schedule_at(now_ + std::max<SimDuration>(delay, 0), std::move(fn));
}

bool Scheduler::drained() const noexcept {
  return std::all_of(heap_.begin(), heap_.end(), [](const Entry& e) {
    return e.state->cancelled;
  });
}

bool Scheduler::step() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), EntryCompare{});
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    if (entry.state->cancelled) {
      ev_cancelled_->inc();
      continue;
    }
    now_ = entry.time;
    entry.state->fired = true;
    Callback fn = std::move(entry.state->callback);
    entry.state->callback = nullptr;
    ++processed_;
    ev_fired_->inc();
    heap_size_->set(static_cast<std::int64_t>(heap_.size()));
    fn();
    return true;
  }
  heap_size_->set(0);
  return false;
}

void Scheduler::run() {
  while (step()) {
  }
}

void Scheduler::run_until(SimTime t) {
  const std::uint64_t fired_before = processed_;
  while (!heap_.empty() && heap_.front().time <= t) {
    if (!step()) break;
  }
  now_ = std::max(now_, t);
  // One epoch per drained prefix: the campaign's day-segmented drain
  // loop shows up as a sched_epoch series in the event stream.
  if (obs::EventLog* log = obs::EventLog::installed()) {
    log->emit(obs::Event("sched_epoch", now_,
                         static_cast<std::int64_t>(epoch_))
                  .field("fired", processed_ - fired_before)
                  .field("fired_total", processed_)
                  .field("heap", static_cast<std::uint64_t>(heap_.size())));
  }
  ++epoch_;
}

}  // namespace pandarus::sim
