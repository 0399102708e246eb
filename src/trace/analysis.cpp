#include "trace/analysis.hpp"

#include <utility>

#include "util/assert.hpp"

namespace gearsim::trace {

void RankFold::add(mpi::CallType type, Seconds enter, Seconds exit) {
  GEARSIM_REQUIRE(enter >= prev_exit_, "trace records out of order");
  ++calls_;
  const Seconds compute_gap = enter - prev_exit_;
  if (send_open_) since_send_ += compute_gap;

  idle_ += exit - enter;

  const bool is_send = type == mpi::CallType::kSend ||
                       type == mpi::CallType::kIsend ||
                       type == mpi::CallType::kSendrecv;
  if (mpi::is_blocking_point(type) && send_open_) {
    // A blocking point ends the current reducible window.
    reducible_ += since_send_;
    send_open_ = false;
    since_send_ = Seconds{};
  }
  if (is_send) {
    // "We assume that the send is asynchronous": work after the last
    // send cannot delay remote progress, so start (or restart) the
    // reducible window at this send's completion.  A sendrecv both
    // blocks (handled above) and sends (opens a fresh window here).
    send_open_ = true;
    since_send_ = Seconds{};
  }
  prev_exit_ = exit;
}

RankBreakdown RankFold::finish(Seconds run_end) const {
  GEARSIM_REQUIRE(run_end >= run_start_, "run interval reversed");
  RankBreakdown out;
  out.wall = run_end - run_start_;
  out.mpi_calls = calls_;
  out.idle = idle_;
  out.active = out.wall - idle_;
  out.reducible = reducible_;
  out.critical = out.active - reducible_;
  GEARSIM_ENSURE(out.active.value() >= -1e-9, "negative active time");
  GEARSIM_ENSURE(out.critical.value() >= -1e-9, "negative critical time");
  return out;
}

RankBreakdown analyze_rank(std::span<const TraceRecord> records,
                           Seconds run_start, Seconds run_end) {
  GEARSIM_REQUIRE(run_end >= run_start, "run interval reversed");
  RankFold fold(run_start);
  for (const TraceRecord& rec : records) fold.add(rec.type, rec.enter, rec.exit);
  return fold.finish(run_end);
}

namespace {

/// The cluster view of per-rank breakdowns, taken in rank order.
ClusterBreakdown combine(std::vector<RankBreakdown> ranks, Seconds wall) {
  ClusterBreakdown out;
  out.wall = wall;
  out.ranks = std::move(ranks);

  Seconds active_sum{};
  Seconds idle_sum{};
  std::size_t max_rank = 0;
  for (std::size_t r = 0; r < out.ranks.size(); ++r) {
    const RankBreakdown& rb = out.ranks[r];
    active_sum += rb.active;
    idle_sum += rb.idle;
    if (rb.active > out.ranks[max_rank].active) max_rank = r;
  }
  const auto n = static_cast<double>(out.ranks.size());
  out.active_max = out.ranks[max_rank].active;
  out.idle_derived = out.wall - out.active_max;
  out.active_mean = active_sum / n;
  out.idle_mean = idle_sum / n;
  out.critical = out.ranks[max_rank].critical;
  out.reducible = out.ranks[max_rank].reducible;
  return out;
}

}  // namespace

ClusterBreakdown analyze_cluster(const Tracer& tracer, Seconds run_start,
                                 Seconds run_end) {
  std::vector<RankBreakdown> ranks;
  ranks.reserve(tracer.num_ranks());
  for (std::size_t r = 0; r < tracer.num_ranks(); ++r) {
    ranks.push_back(analyze_rank(tracer.records(r), run_start, run_end));
  }
  return combine(std::move(ranks), run_end - run_start);
}

BreakdownObserver::BreakdownObserver(std::size_t num_ranks)
    : folds_(num_ranks), open_(num_ranks) {
  GEARSIM_REQUIRE(num_ranks > 0, "breakdown needs at least one rank");
}

void BreakdownObserver::on_enter(mpi::Rank rank, mpi::CallType type,
                                 Seconds now, Bytes, mpi::Rank) {
  const auto r = static_cast<std::size_t>(rank);
  GEARSIM_REQUIRE(r < open_.size(), "rank out of range");
  GEARSIM_REQUIRE(!open_[r].open, "nested traced MPI calls on one rank");
  open_[r] = OpenCall{true, type, now};
}

void BreakdownObserver::on_exit(mpi::Rank rank, mpi::CallType type,
                                Seconds now) {
  const auto r = static_cast<std::size_t>(rank);
  GEARSIM_REQUIRE(r < open_.size(), "rank out of range");
  OpenCall& call = open_[r];
  GEARSIM_REQUIRE(call.open, "exit without matching enter");
  GEARSIM_REQUIRE(call.type == type, "mismatched enter/exit call types");
  call.open = false;
  folds_[r].add(type, call.enter, now);
}

ClusterBreakdown BreakdownObserver::breakdown(Seconds run_end) const {
  std::vector<RankBreakdown> ranks;
  ranks.reserve(folds_.size());
  for (std::size_t r = 0; r < folds_.size(); ++r) {
    RankFold fold = folds_[r];
    if (open_[r].open) fold.add(open_[r].type, open_[r].enter, open_[r].enter);
    ranks.push_back(fold.finish(run_end));
  }
  // The arithmetic of analyze_cluster(tracer, Seconds{}, run_end).
  return combine(std::move(ranks), run_end - Seconds{});
}

}  // namespace gearsim::trace
