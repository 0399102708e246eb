// Microbenchmark for the rebuilt event kernel: queue throughput across a
// depth sweep (1e3..1e7) and on a tie-heavy queue, allocations per event
// through an instrumented global allocator, and the EventFn capture-pool
// path counts.
//
// Wall-clock throughput goes into the `wall` section (machine-dependent,
// never gated).  The gated deterministic metrics are the properties the
// kernel rewrite exists to guarantee:
//   * engine.allocs_per_event_steady — heap allocations per push/pop pair
//     during steady-state churn; the pooled queue + small-buffer EventFn
//     make this exactly 0, and any regression (a capture outgrowing the
//     inline buffer, the pool losing its free list) bumps it.
//   * engine.pool.inline_events / engine.pool.fallback_allocs — exact
//     capture-path counts for a fixed scenario.
//   * jacobi8.pool_fallback_allocs — fallback allocations across a real
//     8-node Jacobi experiment, read from the obs registry; proves the
//     inline buffer covers every capture the library's own layers create.
//   * mpi.allocs_per_message_steady — heap allocations per message once
//     a two-rank exchange (eager and rendezvous, nonblocking and
//     blocking, early and late receives) has warmed up: exactly 0, since
//     eager sends carry no request state and pending operations reuse
//     the World's pooled slots.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>

#include "cluster/experiment.hpp"
#include "harness.hpp"
#include "mpi/comm.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "trace/analysis.hpp"
#include "workloads/jacobi.hpp"

// --- instrumented global allocator -----------------------------------------
// Counts every operator-new so the bench can assert allocs/event == 0 in
// steady state.  Relaxed atomics: the bench is single-threaded where it
// matters, and the counter is read only between phases.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

using namespace gearsim;

namespace {

template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Steady-state churn at a fixed depth: pop the earliest event, push a
/// replacement one second later.  Returns events processed (== ops).
std::uint64_t churn(sim::EventQueue& q, int ops) {
  for (int i = 0; i < ops; ++i) {
    sim::EventQueue::Popped p = q.pop();
    keep(p.seq);
    q.push(p.time + seconds(1.0), [] {});
  }
  return static_cast<std::uint64_t>(ops);
}

int run(bench::BenchContext& ctx) {
  // --- throughput sweep: depth 1e3 .. 1e7 --------------------------------
  for (const int depth : {1'000, 10'000, 100'000, 1'000'000, 10'000'000}) {
    sim::EventQueue q;
    for (int i = 0; i < depth; ++i) {
      q.push(seconds(((i * 7919LL) % depth) * 1e-3), [] {});
    }
    // Deep queues churn fewer ops so the sweep stays fast end to end.
    const int ops = depth <= 100'000 ? 2'000'000 : 500'000;
    churn(q, ops / 10);  // Warm the pool and the cache.
    const double secs = bench::time_op([&] { churn(q, ops); });
    const double events_per_sec = ops / secs;
    const std::string name = "queue_churn_depth_" + std::to_string(depth);
    ctx.wall_metric(name + ".events_per_sec", events_per_sec);
    ctx.wall_metric(name + ".ns_per_event", secs / ops * 1e9);
    std::cout << name << ": " << events_per_sec << " events/sec\n";
  }

  // --- tie-heavy churn: 1024 events on a few instants ---------------------
  // The shape of a 1024-rank run in lockstep: all ranks start at t=0, and
  // each replacement lands 1-4 us after the event it replaces, so the
  // pending events sit on a few shared instants and nearly every
  // comparison is a time tie decided by seq.  The depth sweep above
  // draws distinct times instead.  Wall only (never gated).
  {
    constexpr int kDepth = 1024;
    constexpr int kOps = 2'000'000;
    const auto tie_churn = [](sim::EventQueue& q, int ops) {
      for (int i = 0; i < ops; ++i) {
        sim::EventQueue::Popped p = q.pop();
        keep(p.seq);
        q.push(p.time + microseconds(1.0 + (i & 3)), [] {});
      }
    };
    sim::EventQueue q;
    for (int i = 0; i < kDepth; ++i) q.push(seconds(0.0), [] {});
    tie_churn(q, kOps / 10);
    const double secs = bench::time_op([&] { tie_churn(q, kOps); });
    ctx.wall_metric("queue_ties_1024.ns_per_event", secs / kOps * 1e9);
    std::cout << "queue_ties_1024: " << secs / kOps * 1e9
              << " ns per push+pop\n";
  }

  // --- allocations per event, steady state -------------------------------
  // At constant depth with warmed vectors, a push/pop pair must touch the
  // allocator zero times: keys move inside a pre-grown vector, captures
  // live inline in pooled slots.  Deterministic, so the gate pins it.
  {
    sim::EventQueue q;
    const int depth = 100'000;
    for (int i = 0; i < depth; ++i) {
      q.push(seconds(((i * 7919LL) % depth) * 1e-3), [] {});
    }
    churn(q, 200'000);  // Warm-up: grow pool/heap/free-list to capacity.
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    const std::uint64_t events = churn(q, 1'000'000);
    const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
    const double allocs_per_event =
        static_cast<double>(after - before) / static_cast<double>(events);
    ctx.metric("engine.allocs_per_event_steady", allocs_per_event);
    std::cout << "steady-state allocs/event: " << allocs_per_event << "\n";
  }

  // --- capture-pool paths: fixed scenario --------------------------------
  // 1000 small captures dispatch inline; 10 oversized captures take the
  // heap fallback.  Exact counts, gated.
  {
    sim::Engine engine;
    struct Oversized {
      double payload[12] = {};  // 96 bytes > EventFn::kInlineCapacity.
    };
    for (int i = 0; i < 1000; ++i) {
      engine.schedule_at(seconds(i), [] {});
    }
    for (int i = 0; i < 10; ++i) {
      Oversized big;
      big.payload[0] = i;
      engine.schedule_at(seconds(2000 + i), [big] { keep(big.payload[0]); });
    }
    engine.run();
    ctx.metric("engine.pool.inline_events",
               static_cast<double>(engine.pool_inline_events()));
    ctx.metric("engine.pool.fallback_allocs",
               static_cast<double>(engine.pool_fallback_allocs()));
  }

  // --- single-process delay chain -----------------------------------------
  // One process delaying with nothing else pending, so every delay is the
  // next event: the cost of a process suspending for simulated time on
  // its own.  Wall only (machine-dependent, never gated).
  {
    constexpr int kDelays = 100'000;
    const double secs = bench::time_op([] {
      sim::Engine engine;
      engine.spawn("chain", [](sim::Process& p) {
        for (int i = 0; i < kDelays; ++i) p.delay(microseconds(1.0));
      });
      engine.run();
    });
    ctx.wall_metric("engine.delay_chain.ns_per_delay", secs / kDelays * 1e9);
    std::cout << "delay chain: " << secs / kDelays * 1e9 << " ns/delay\n";
  }

  // --- fallback allocations across a real experiment ---------------------
  // The kernel rewrite sized the inline buffer for every capture the
  // library creates; an 8-node Jacobi run must therefore report zero
  // fallbacks through the observability counters.
  {
    const cluster::ExperimentRunner runner(cluster::athlon_cluster());
    const workloads::Jacobi jacobi;
    obs::MetricsRegistry registry;
    cluster::RunOptions options;
    options.metrics = &registry;
    const cluster::RunResult r = runner.run(jacobi, 8, options);
    keep(r.wall);
    ctx.metric("jacobi8.pool_fallback_allocs",
               static_cast<double>(
                   registry.counter("sim.engine.pool.fallback_allocs").value()));
    ctx.metric("jacobi8.pool_inline_events",
               static_cast<double>(
                   registry.counter("sim.engine.pool.inline_events").value()));
    ctx.metric("jacobi8.event_order_hash_low32",
               static_cast<double>(r.event_order_hash & 0xffffffffULL));
  }

  // --- allocations per MPI message, steady state -------------------------
  // Two ranks exchange per round: an eager isend/irecv pair, a blocking
  // eager send/recv and a rendezvous sendrecv, with the breakdown fold
  // attached as ExperimentRunner attaches it.  Rank 1 lags rank 0 by a
  // varying delay, so receives land both before and after their
  // messages (posted list and unexpected queue).  Rank 0 samples the
  // allocator after the warm-up rounds and at the end of the measured
  // ones.  Deterministic, so the gate pins it.
  {
    constexpr int kWarmup = 200;
    constexpr int kRounds = 2'000;
    constexpr int kMessagesPerRound = 6;  // Three per rank.
    sim::Engine engine;
    net::Network network(net::ethernet_100mbps(), 2);
    mpi::MpiParams params;
    params.eager_threshold = 1024;
    mpi::World world(engine, network, 2, params);
    trace::BreakdownObserver fold(2);
    world.add_observer(&fold);
    std::uint64_t before = 0;
    std::uint64_t after = 0;
    for (int r = 0; r < 2; ++r) {
      sim::Process& proc = engine.spawn(
          "rank" + std::to_string(r), [&, r](sim::Process& p) {
            mpi::Comm comm(world, r);
            const mpi::Rank peer = 1 - r;
            for (int i = 0; i < kWarmup + kRounds; ++i) {
              if (r == 0 && i == kWarmup) {
                before = g_allocs.load(std::memory_order_relaxed);
              }
              if (r == 1) p.delay(microseconds(50.0 * (i % 4)));
              mpi::Request reqs[2] = {comm.irecv(peer, 0),
                                      comm.isend(peer, 0, 512)};
              comm.waitall(reqs);
              if (r == 0) {
                comm.send(peer, 1, 256);
                comm.recv(peer, 1);
              } else {
                comm.recv(peer, 1);
                comm.send(peer, 1, 256);
              }
              comm.sendrecv(peer, 2, 4096, peer, 2);
            }
            if (r == 0) after = g_allocs.load(std::memory_order_relaxed);
          });
      world.bind_rank(r, proc);
    }
    engine.run();
    const double allocs_per_message =
        static_cast<double>(after - before) /
        static_cast<double>(kRounds * kMessagesPerRound);
    ctx.metric("mpi.allocs_per_message_steady", allocs_per_message);
    std::cout << "steady-state allocs/message: " << allocs_per_message
              << "\n";
  }

  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::bench_main(argc, argv, "microbench_engine", run);
}
