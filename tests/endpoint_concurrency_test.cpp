// Concurrency battery for Endpoint's per-link locking (DESIGN.md
// "Endpoint locking inventory").
//
// The map lock is reader-writer and each link carries its own send mutex,
// so the properties worth pinning under TSan are exactly the ones the
// sharding could break: sends to *different* destinations proceed
// concurrently without corrupting each other, sends to the *same*
// destination stay ordered per sender, a first-send race dials exactly one
// link, stats scraping never tears mid-send, and drop_link churn while
// sends are in flight neither loses nor duplicates a frame (deferred
// reclamation keeps the detached link alive until the send returns).
// Everything here uses small payloads so even the RDMA links stay on the
// eager path -- queued frames survive a dropped send link because they
// already sit in receiver-owned queue state.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "evpath/bus.h"
#include "util/backoff.h"

namespace flexio::evpath {
namespace {

using namespace std::chrono_literals;

// Frame payload: (sender thread, per-thread sequence number).
struct Frame {
  std::uint32_t thread = 0;
  std::uint32_t seq = 0;
};

ByteView bytes_of(const Frame& f) {
  return ByteView(reinterpret_cast<const std::byte*>(&f), sizeof f);
}

Frame frame_of(const Message& msg) {
  Frame f;
  EXPECT_EQ(msg.payload.size(), sizeof f);
  std::memcpy(&f, msg.payload.data(), sizeof f);
  return f;
}

/// Drain `expect` frames from `ep` (all from the hub); fails the test on a
/// timeout so a lost frame shows up as a count shortfall, not a hang.
std::vector<Frame> drain_frames(Endpoint& ep, std::size_t expect) {
  std::vector<Frame> frames;
  frames.reserve(expect);
  while (frames.size() < expect) {
    Message msg;
    const Status st = ep.recv(&msg, 10s);
    if (!st.is_ok()) {
      ADD_FAILURE() << ep.name() << " drained only " << frames.size() << "/"
                    << expect << ": " << st.to_string();
      break;
    }
    if (msg.eos) continue;
    frames.push_back(frame_of(msg));
  }
  return frames;
}

/// Per-thread sequences must be strictly increasing: the per-link send
/// mutex serializes same-destination sends, and each link is FIFO.
void expect_ordered_per_thread(const std::vector<Frame>& frames) {
  std::map<std::uint32_t, std::uint32_t> next;
  for (const Frame& f : frames) {
    auto [it, inserted] = next.emplace(f.thread, 0);
    EXPECT_EQ(f.seq, it->second)
        << "thread " << f.thread << " frames reordered or duplicated";
    it->second = f.seq + 1;
  }
}

TEST(EndpointConcurrencyTest, DisjointDestinationsSendConcurrently) {
  // One sender thread per destination: the link-map shared lock lets all
  // of them enqueue at once, and each receiver must still see its own
  // stream perfectly in order with nothing lost.
  constexpr int kThreads = 4;
  constexpr std::uint32_t kMessages = 200;
  MessageBus bus;
  auto hub = bus.create_endpoint("hub", Location{0, 0}).value();
  std::vector<std::shared_ptr<Endpoint>> receivers;
  for (int t = 0; t < kThreads; ++t) {
    // Alternate same-node (shm) and cross-node (RDMA) destinations so both
    // transports ride under the same contention.
    const Location loc = t % 2 == 0 ? Location{0, t + 1} : Location{1, t};
    receivers.push_back(
        bus.create_endpoint("recv" + std::to_string(t), loc).value());
  }

  std::vector<std::vector<Frame>> received(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string dest = "recv" + std::to_string(t);
      for (std::uint32_t seq = 0; seq < kMessages; ++seq) {
        const Frame f{static_cast<std::uint32_t>(t), seq};
        ASSERT_TRUE(hub->send(dest, bytes_of(f)).is_ok());
      }
    });
    threads.emplace_back(
        [&, t] { received[t] = drain_frames(*receivers[t], kMessages); });
  }
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(received[t].size(), kMessages) << "receiver " << t;
    expect_ordered_per_thread(received[t]);
    for (const Frame& f : received[t]) {
      EXPECT_EQ(f.thread, static_cast<std::uint32_t>(t));
    }
    EXPECT_EQ(hub->outbound_stats("recv" + std::to_string(t)).messages,
              kMessages);
  }
}

TEST(EndpointConcurrencyTest, OverlappingDestinationStaysOrderedPerSender) {
  // All threads hammer one destination: the per-link mutex is the only
  // thing keeping the link's sequence counter and stats sane. Each
  // sender's own frames must arrive in order; across senders any
  // interleaving is legal.
  constexpr int kThreads = 4;
  constexpr std::uint32_t kMessages = 200;
  MessageBus bus;
  auto hub = bus.create_endpoint("hub", Location{0, 0}).value();
  auto sink = bus.create_endpoint("sink", Location{0, 1}).value();

  std::vector<Frame> frames;
  std::thread drainer(
      [&] { frames = drain_frames(*sink, kThreads * kMessages); });
  std::vector<std::thread> senders;
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&, t] {
      for (std::uint32_t seq = 0; seq < kMessages; ++seq) {
        const Frame f{static_cast<std::uint32_t>(t), seq};
        ASSERT_TRUE(hub->send("sink", bytes_of(f)).is_ok());
      }
    });
  }
  for (std::thread& th : senders) th.join();
  drainer.join();

  ASSERT_EQ(frames.size(), static_cast<std::size_t>(kThreads) * kMessages);
  expect_ordered_per_thread(frames);
  const LinkStats stats = hub->outbound_stats("sink");
  EXPECT_EQ(stats.messages, static_cast<std::uint64_t>(kThreads) * kMessages);
  EXPECT_EQ(stats.bytes,
            static_cast<std::uint64_t>(kThreads) * kMessages * sizeof(Frame));
}

TEST(EndpointConcurrencyTest, FirstSendRaceDialsExactlyOneLink) {
  // N threads race the very first send to a fresh peer. connect_mutex_'s
  // double-checked lookup must funnel them onto a single link: if two
  // links were dialed, some sends would land on the entry that lost the
  // map insert and the surviving link's stats would undercount.
  constexpr int kThreads = 8;
  MessageBus bus;
  auto hub = bus.create_endpoint("hub", Location{0, 0}).value();
  auto fresh = bus.create_endpoint("fresh", Location{1, 0}).value();

  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      const Frame f{static_cast<std::uint32_t>(t), 0};
      ASSERT_TRUE(hub->send("fresh", bytes_of(f)).is_ok());
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_TRUE(hub->transport_to("fresh").is_ok());
  EXPECT_EQ(hub->outbound_stats("fresh").messages,
            static_cast<std::uint64_t>(kThreads));
  const std::vector<Frame> frames = drain_frames(*fresh, kThreads);
  std::set<std::uint32_t> senders;
  for (const Frame& f : frames) senders.insert(f.thread);
  EXPECT_EQ(senders.size(), static_cast<std::size_t>(kThreads));
}

TEST(EndpointConcurrencyTest, LinkChurnNeverLosesOrDuplicatesFrames) {
  // drop_link storms while sends are in flight: every send either
  // completes on the link it grabbed (deferred reclamation) or re-dials,
  // so the union of frames across old and new links is exactly what was
  // sent -- nothing lost, nothing doubled. Global order is NOT promised
  // across a reconnect (the old link's queue drains independently), so
  // this asserts set-completeness only.
  constexpr int kThreads = 3;
  constexpr std::uint32_t kMessages = 150;
  MessageBus bus;
  auto hub = bus.create_endpoint("hub", Location{0, 0}).value();
  auto shm_sink = bus.create_endpoint("churn_shm", Location{0, 1}).value();
  auto rdma_sink = bus.create_endpoint("churn_rdma", Location{1, 0}).value();

  std::vector<Frame> shm_frames;
  std::vector<Frame> rdma_frames;
  // kThreads senders split across both sinks; thread ids stay globally
  // unique so the merged dedup check below is meaningful.
  std::thread shm_drain([&] {
    shm_frames =
        drain_frames(*shm_sink, (kThreads - kThreads / 2) * kMessages);
  });
  std::thread rdma_drain(
      [&] { rdma_frames = drain_frames(*rdma_sink, kThreads / 2 * kMessages); });

  std::atomic<bool> done{false};
  std::thread churn([&] {
    while (!done.load()) {
      hub->drop_link("churn_shm");
      hub->drop_link("churn_rdma");
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> senders;
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&, t] {
      const std::string dest = t % 2 == 0 ? "churn_shm" : "churn_rdma";
      for (std::uint32_t seq = 0; seq < kMessages; ++seq) {
        const Frame f{static_cast<std::uint32_t>(t), seq};
        ASSERT_TRUE(hub->send(dest, bytes_of(f)).is_ok());
      }
    });
  }
  for (std::thread& th : senders) th.join();
  done.store(true);
  churn.join();
  shm_drain.join();
  rdma_drain.join();

  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (const std::vector<Frame>* frames : {&shm_frames, &rdma_frames}) {
    for (const Frame& f : *frames) {
      EXPECT_TRUE(seen.emplace(f.thread, f.seq).second)
          << "duplicate frame thread=" << f.thread << " seq=" << f.seq;
    }
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kThreads) * kMessages);
}

TEST(EndpointConcurrencyTest, IdleRdmaLinksLeftByRedialsDoNotSlowRecv) {
  // Every drop_link re-dial leaves the sink one more inbound RDMA link
  // that never sends again (no EOS, so recv_from keeps polling it). Each
  // recv pass checks all of them with a zero-timeout NNTI poll; if such a
  // poll sleeps (~59 us of timer slack per empty queue), 32 idle links add
  // ~1.9 ms to every recv and 200 round trips take > 380 ms.
  constexpr int kIdleLinks = 32;
  constexpr std::uint32_t kRoundTrips = 200;
  MessageBus bus;
  auto hub = bus.create_endpoint("hub", Location{0, 0}).value();
  auto sink = bus.create_endpoint("sink", Location{1, 0}).value();
  Message msg;
  for (int i = 0; i < kIdleLinks; ++i) {
    ASSERT_TRUE(hub->send("sink", bytes_of(Frame{0, 0})).is_ok());
    ASSERT_TRUE(sink->recv(&msg, 10s).is_ok());
    hub->drop_link("sink");
  }
  ASSERT_EQ(hub->transport_to("sink").status().code(), ErrorCode::kNotFound);

  // Single-threaded ping-pong on a fresh link: every frame is already
  // queued when its recv starts, so the time is the recv passes alone.
  // Best of three rounds, so one preemption cannot fail the test.
  auto best = std::chrono::steady_clock::duration::max();
  std::uint32_t seq = 0;
  for (int round = 0; round < 3; ++round) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t i = 0; i < kRoundTrips; ++i, ++seq) {
      ASSERT_TRUE(hub->send("sink", bytes_of(Frame{1, seq})).is_ok());
      ASSERT_TRUE(sink->recv(&msg, 10s).is_ok());
      ASSERT_EQ(frame_of(msg).seq, seq);
      ASSERT_TRUE(sink->send("hub", bytes_of(Frame{2, seq})).is_ok());
      ASSERT_TRUE(hub->recv(&msg, 10s).is_ok());
      ASSERT_EQ(frame_of(msg).seq, seq);
    }
    best = std::min(best, std::chrono::steady_clock::now() - t0);
  }
  EXPECT_EQ(hub->transport_to("sink").value(), TransportKind::kRdma);
  EXPECT_LT(best, 40ms)
      << kRoundTrips << " round trips past " << kIdleLinks
      << " idle RDMA links took "
      << std::chrono::duration<double, std::milli>(best).count() << " ms";
}

TEST(EndpointConcurrencyTest, StatsScrapeRunsAgainstLiveSends) {
  // transport_to and outbound_stats take the shared side of the map lock
  // plus one link's mutex -- a scraper loop (the flight recorder's access
  // pattern) must observe monotone counters and never block the other
  // destinations' senders out of making progress.
  constexpr std::uint32_t kMessages = 400;
  MessageBus bus;
  auto hub = bus.create_endpoint("hub", Location{0, 0}).value();
  auto a = bus.create_endpoint("a", Location{0, 1}).value();
  auto b = bus.create_endpoint("b", Location{1, 0}).value();

  std::atomic<bool> done{false};
  std::uint64_t last_a = 0;
  std::uint64_t last_b = 0;
  std::uint64_t scrapes = 0;
  std::thread scraper([&] {
    while (!done.load()) {
      const std::uint64_t now_a = hub->outbound_stats("a").messages;
      const std::uint64_t now_b = hub->outbound_stats("b").messages;
      EXPECT_GE(now_a, last_a);
      EXPECT_GE(now_b, last_b);
      last_a = now_a;
      last_b = now_b;
      (void)hub->transport_to("a");
      ++scrapes;
      std::this_thread::yield();
    }
  });
  std::thread drain_a([&] { drain_frames(*a, kMessages); });
  std::thread drain_b([&] { drain_frames(*b, kMessages); });
  std::thread send_a([&] {
    for (std::uint32_t seq = 0; seq < kMessages; ++seq) {
      ASSERT_TRUE(hub->send("a", bytes_of(Frame{0, seq})).is_ok());
    }
  });
  std::thread send_b([&] {
    for (std::uint32_t seq = 0; seq < kMessages; ++seq) {
      ASSERT_TRUE(hub->send("b", bytes_of(Frame{1, seq})).is_ok());
    }
  });
  send_a.join();
  send_b.join();
  drain_a.join();
  drain_b.join();
  done.store(true);
  scraper.join();

  EXPECT_GT(scrapes, 0u);
  EXPECT_EQ(hub->outbound_stats("a").messages, kMessages);
  EXPECT_EQ(hub->outbound_stats("b").messages, kMessages);
  EXPECT_EQ(hub->transport_to("a").value(), TransportKind::kShm);
  EXPECT_EQ(hub->transport_to("b").value(), TransportKind::kRdma);
}

// ------------------------------------------------ recv backoff schedule --

// Recorder for the process-wide Backoff sleep hook (plain function
// pointer, so the capture buffer is file-static). Single-threaded use
// only: the idle recv below runs on the test thread itself.
std::vector<std::chrono::nanoseconds>& recorded_sleeps() {
  static std::vector<std::chrono::nanoseconds> v;
  return v;
}
void record_sleep(std::chrono::nanoseconds d) {
  recorded_sleeps().push_back(d);
}

/// Poll `ep` with short timed-out recvs until at least `want` delays have
/// been recorded (bounded; fails the test if the ladder never grows). The
/// idle-backoff state persists across recv calls, so repeated polls keep
/// climbing the ladder even when scheduler load makes the spin-yield
/// prefix eat a whole 2ms timeout on its own.
void poll_idle_until(Endpoint& ep, std::size_t want) {
  for (int i = 0; i < 200 && recorded_sleeps().size() < want; ++i) {
    Message msg;
    ASSERT_EQ(ep.recv(&msg, 2ms).code(), ErrorCode::kTimeout);
  }
  ASSERT_GE(recorded_sleeps().size(), want)
      << "idle recv never reached " << want << " backoff sleeps";
}

TEST(EndpointRecvBackoffTest, IdleRecvBacksOffGeometricallyThenCaps) {
  // An idle recv spin-yields first, then falls into the 2us -> 256us
  // geometric schedule instead of busy-polling for the whole timeout. With
  // the fake-sleep hook installed the waits cost no wall-clock beyond the
  // (short) timeouts themselves, and the exact delay ladder is left
  // behind. The ladder spans recv calls (persistent idle state), so the
  // schedule is deterministic no matter how the polls slice it.
  MessageBus bus;
  auto lonely = bus.create_endpoint("lonely", Location{0, 0}).value();
  recorded_sleeps().clear();
  util::Backoff::set_sleep_for_testing(&record_sleep);
  poll_idle_until(*lonely, 10);
  util::Backoff::set_sleep_for_testing(nullptr);

  const std::vector<std::chrono::nanoseconds>& sleeps = recorded_sleeps();
  ASSERT_GE(sleeps.size(), 10u);
  using std::chrono::microseconds;
  const std::vector<std::chrono::nanoseconds> ladder = {
      microseconds(2),  microseconds(4),  microseconds(8),  microseconds(16),
      microseconds(32), microseconds(64), microseconds(128)};
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    EXPECT_EQ(sleeps[i], ladder[i]) << "rung " << i;
  }
  for (std::size_t i = ladder.size(); i < sleeps.size(); ++i) {
    ASSERT_EQ(sleeps[i], microseconds(256)) << "post-cap sleep " << i;
  }
  recorded_sleeps().clear();
}

TEST(EndpointRecvBackoffTest, LadderRestartsAfterSuccessfulDequeue) {
  // The idle state persists across recv calls -- a fresh timed poll on a
  // still-idle endpoint resumes at the cap, not at the spin tier -- but a
  // successful dequeue resets it: a burst arriving after a long idle period
  // must pay yields and a 2us rung, not a stale 256us sleep.
  using std::chrono::microseconds;
  MessageBus bus;
  auto rx = bus.create_endpoint("backoff.rx", Location{0, 0}).value();
  auto tx = bus.create_endpoint("backoff.tx", Location{0, 1}).value();
  util::Backoff::set_sleep_for_testing(&record_sleep);

  // Climb the ladder past the cap on an idle endpoint.
  recorded_sleeps().clear();
  poll_idle_until(*rx, 8);
  EXPECT_EQ(recorded_sleeps().back(), microseconds(256));

  // Still idle: the next recorded sleep continues at the cap (the
  // spin-yield budget was consumed by the earlier calls, too).
  recorded_sleeps().clear();
  poll_idle_until(*rx, 1);
  EXPECT_EQ(recorded_sleeps().front(), microseconds(256));

  // A message lands and is dequeued: the ladder restarts from the bottom.
  Message msg;
  ASSERT_TRUE(tx->send("backoff.rx", bytes_of(Frame{7, 0})).is_ok());
  ASSERT_TRUE(rx->recv(&msg, 10s).is_ok());
  EXPECT_EQ(frame_of(msg).thread, 7u);
  recorded_sleeps().clear();
  poll_idle_until(*rx, 2);
  EXPECT_EQ(recorded_sleeps()[0], microseconds(2)) << "ladder did not restart";
  EXPECT_EQ(recorded_sleeps()[1], microseconds(4));

  util::Backoff::set_sleep_for_testing(nullptr);
  recorded_sleeps().clear();
}

}  // namespace
}  // namespace flexio::evpath
