#include "sim/simulator.h"

#include <algorithm>

#include "support/assert.h"
#include "support/log.h"

namespace lm::sim {

Simulator::Simulator() = default;

Simulator::~Simulator() {
  if (logger_attached_) Logger::instance().set_time_source(nullptr);
}

TimerId Simulator::schedule_at(TimePoint t, std::function<void()> fn) {
  LM_REQUIRE(t >= now_);
  LM_REQUIRE(fn != nullptr);
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  ++s.gen;  // gen >= 1 always, so make_id() never returns 0
  s.live = true;
  s.fn = std::move(fn);
  queue_.push_back(Entry{t.us(), next_seq_++, slot, s.gen});
  std::push_heap(queue_.begin(), queue_.end(), later);
  ++live_count_;
  return make_id(slot, s.gen);
}

TimerId Simulator::schedule_after(Duration d, std::function<void()> fn) {
  LM_REQUIRE(!d.is_negative());
  return schedule_at(now_ + d, std::move(fn));
}

const Simulator::Slot* Simulator::find_live(TimerId id) const {
  const auto slot = static_cast<std::uint32_t>(id >> 32);
  const auto gen = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  if (slot >= slots_.size()) return nullptr;
  const Slot& s = slots_[slot];
  return (s.live && s.gen == gen) ? &s : nullptr;
}

void Simulator::cancel(TimerId id) {
  const auto slot = static_cast<std::uint32_t>(id >> 32);
  const auto gen = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (!s.live || s.gen != gen) return;
  s.live = false;
  s.fn = nullptr;  // release the closure (and its captures) right now
  free_.push_back(slot);
  --live_count_;
  // The queue entry stays behind as a stale (slot, gen) key; it is
  // discarded when its timestamp surfaces, or swept here in bulk if
  // cancellations outpace pops.
  ++dead_in_queue_;
  maybe_purge();
}

bool Simulator::is_pending(TimerId id) const { return find_live(id) != nullptr; }

std::optional<TimePoint> Simulator::next_event_time() const {
  if (queue_.empty()) return std::nullopt;
  return TimePoint::from_us(queue_.front().at);
}

void Simulator::maybe_purge() {
  if (dead_in_queue_ <= 1024 || dead_in_queue_ <= live_count_) return;
  const auto dead = std::remove_if(queue_.begin(), queue_.end(),
                                   [this](const Entry& e) { return !entry_live(e); });
  LM_ASSERT(static_cast<std::size_t>(queue_.end() - dead) == dead_in_queue_);
  queue_.erase(dead, queue_.end());
  std::make_heap(queue_.begin(), queue_.end(), later);
  dead_in_queue_ = 0;
}

bool Simulator::fire_next(TimePoint limit) {
  for (;;) {
    if (queue_.empty() || queue_.front().at > limit.us()) return false;
    std::pop_heap(queue_.begin(), queue_.end(), later);
    const Entry e = queue_.back();
    queue_.pop_back();
    if (!entry_live(e)) {
      --dead_in_queue_;
      continue;
    }
    Slot& s = slots_[e.slot];
    // Move the closure out before firing: the handler may schedule new
    // events, which may reuse this very slot.
    std::function<void()> fn = std::move(s.fn);
    s.live = false;
    s.fn = nullptr;
    free_.push_back(e.slot);
    --live_count_;
    LM_ASSERT(e.at >= now_.us());
    now_ = TimePoint::from_us(e.at);
    ++events_processed_;
    fn();
    return true;
  }
}

bool Simulator::step() { return fire_next(TimePoint::max()); }

std::size_t Simulator::run_until(TimePoint t) {
  LM_REQUIRE(t >= now_);
  stop_requested_ = false;
  std::size_t processed = 0;
  while (fire_next(t)) {
    ++processed;
    if (stop_requested_) return processed;
  }
  now_ = t;
  return processed;
}

std::size_t Simulator::run() {
  stop_requested_ = false;
  std::size_t processed = 0;
  while (!stop_requested_ && step()) ++processed;
  return processed;
}

void Simulator::attach_logger_time_source() {
  Logger::instance().set_time_source([this] { return now_.us(); });
  logger_attached_ = true;
}

}  // namespace lm::sim
