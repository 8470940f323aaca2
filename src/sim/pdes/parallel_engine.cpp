#include "sim/pdes/parallel_engine.h"

#include <algorithm>

#include "support/assert.h"

namespace lm::sim::pdes {

ParallelEngine::ParallelEngine(std::size_t regions, std::size_t workers,
                               Duration lookahead, Duration max_lookahead)
    : lookahead_(lookahead),
      lookahead_max_(std::max(lookahead, max_lookahead)),
      outbox_(regions),
      boundary_end_us_(regions, TimePoint::origin().us()),
      pool_(std::max<std::size_t>(workers, 1)) {
  LM_REQUIRE(regions >= 1);
  LM_REQUIRE(lookahead > Duration::zero());
  sims_.reserve(regions);
  for (std::size_t r = 0; r < regions; ++r) {
    sims_.push_back(std::make_unique<Simulator>());
  }
}

ParallelEngine::~ParallelEngine() = default;

void ParallelEngine::post(std::size_t from, std::function<void()> apply) {
  outbox_.at(from).push_back(std::move(apply));
}

void ParallelEngine::note_boundary_tx(std::size_t from, TimePoint end) {
  std::int64_t& mark = boundary_end_us_.at(from);
  if (end.us() > mark) mark = end.us();
}

Duration ParallelEngine::window_for(TimePoint t0) const {
  if (lookahead_max_ <= lookahead_) return lookahead_;
  // A boundary transmission still on the air at t0 must surface as a
  // carrier for neighboring regions' CAD/interference queries on the tight
  // window grid; otherwise the window may stretch to the whole-frame floor.
  // The marks only ever come from executed events, so this choice is a
  // function of simulation state — identical at every worker count.
  for (const std::int64_t end_us : boundary_end_us_) {
    if (end_us > t0.us()) return lookahead_;
  }
  return lookahead_max_;
}

void ParallelEngine::exchange() {
  // Fixed global order — source region id, then append order — so the
  // messages land in every destination Simulator's scheduling FIFO in a
  // sequence no worker interleaving can perturb.
  for (auto& box : outbox_) {
    for (auto& apply : box) {
      apply();
      ++messages_;
    }
    box.clear();
  }
}

void ParallelEngine::run_until(TimePoint t) {
  for (;;) {
    // Skip-ahead: open the next window at the earliest pending event
    // anywhere. A cancelled-but-unswept queue entry may pull t0 early —
    // that only costs an empty window, never correctness. Barrier-applied
    // messages can sit exactly at now_ (a ghost ending on the boundary),
    // hence the clamp.
    TimePoint t0 = TimePoint::max();
    for (const auto& s : sims_) {
      if (const auto next = s->next_event_time(); next && *next < t0) {
        t0 = *next;
      }
    }
    if (t0 > t) break;  // nothing left inside the horizon
    if (t0 < now_) t0 = now_;
    const Duration window = window_for(t0);
    // The adaptive choice must stay within the proven conservative band;
    // tripping this means window_for violated the lookahead bound.
    LM_ASSERT(window >= lookahead_ && window <= lookahead_max_);
    if (window > lookahead_) ++widened_;
    const TimePoint w_end = std::min(t0 + window, t);
    for (std::size_t r = 0; r < sims_.size(); ++r) {
      Simulator* s = sims_[r].get();
      pool_.submit([s, w_end] { s->run_until(w_end); });
    }
    pool_.wait_idle();
    now_ = w_end;
    ++windows_;
    exchange();
    if (barrier_hook_) barrier_hook_();
  }
  // Horizon reached: advance every region's clock to exactly t (fires
  // nothing — the loop already drained all events <= t).
  for (const auto& s : sims_) s->run_until(t);
  now_ = t;
}

std::uint64_t ParallelEngine::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& s : sims_) total += s->events_processed();
  return total;
}

}  // namespace lm::sim::pdes
