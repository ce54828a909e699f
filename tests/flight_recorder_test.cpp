// Tests for the always-on flight recorder: ring record/readback and wrap
// semantics, detail truncation, the thread-local install surface,
// concurrent writers and read-while-write torn-slot skipping, the JSON
// dump (including its AtomicFile no-partial-file guarantee), and the
// mpimini runtime integration (always-populated RunResult recorders plus
// the dump-on-rank-error path).

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "instrument/flight_recorder.hpp"
#include "instrument/report.hpp"
#include "mpimini/runtime.hpp"

namespace {

using instrument::FlightEvent;
using instrument::FlightEventKind;
using instrument::FlightRecorder;
using instrument::RecordFlightEvent;

std::string TempDir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// ------------------------------------------------------------ ring basics

TEST(FlightRecorderTest, RecordAndReadBack) {
  FlightRecorder recorder(/*rank=*/3, /*capacity=*/16);
  recorder.Record(FlightEventKind::kStep, "solver.step", 0);
  recorder.Record(FlightEventKind::kStall, "pipeline.slot_wait", 1, 0.25);
  recorder.Record(FlightEventKind::kError, "boom");

  const std::vector<FlightEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kStep);
  EXPECT_EQ(events[0].detail, "solver.step");
  EXPECT_EQ(events[0].step, 0);
  EXPECT_EQ(events[1].kind, FlightEventKind::kStall);
  EXPECT_DOUBLE_EQ(events[1].value, 0.25);
  EXPECT_EQ(events[2].detail, "boom");
  EXPECT_EQ(events[2].step, -1);
  EXPECT_GT(events[1].ts_ns, 0);
  EXPECT_GE(events[2].ts_ns, events[0].ts_ns);  // oldest first
  EXPECT_EQ(recorder.TotalEvents(), 3u);
  EXPECT_EQ(recorder.Rank(), 3);
  EXPECT_EQ(recorder.Capacity(), 16u);
}

TEST(FlightRecorderTest, KindNamesAreStable) {
  EXPECT_EQ(instrument::FlightEventKindName(FlightEventKind::kStep), "step");
  EXPECT_EQ(instrument::FlightEventKindName(FlightEventKind::kStall),
            "stall");
  EXPECT_EQ(instrument::FlightEventKindName(FlightEventKind::kQueueBlock),
            "queue_block");
  EXPECT_EQ(instrument::FlightEventKindName(FlightEventKind::kCodecFallback),
            "codec_fallback");
  EXPECT_EQ(instrument::FlightEventKindName(FlightEventKind::kCommWait),
            "comm_wait");
  EXPECT_EQ(instrument::FlightEventKindName(FlightEventKind::kError),
            "error");
  EXPECT_EQ(instrument::FlightEventKindName(FlightEventKind::kAnomaly),
            "anomaly");
}

TEST(FlightRecorderTest, WrapKeepsNewestTail) {
  FlightRecorder recorder(0, /*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    recorder.Record(FlightEventKind::kStep, "solver.step", i);
  }
  EXPECT_EQ(recorder.TotalEvents(), 10u);
  const auto events = recorder.Events();
  ASSERT_EQ(events.size(), 4u);
  // The retained tail is the last capacity events, oldest first.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].step, 6 + i);
  }
}

TEST(FlightRecorderTest, DetailTruncatesAtCapacity) {
  FlightRecorder recorder(0, 4);
  const std::string longdetail(100, 'x');
  recorder.Record(FlightEventKind::kError, longdetail);
  const auto events = recorder.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].detail,
            std::string(FlightRecorder::kDetailCapacity - 1, 'x'));
}

// ------------------------------------------------- thread-local surface

TEST(FlightRecorderTest, FreeFunctionWithoutRecorderIsNoop) {
  ASSERT_EQ(instrument::CurrentFlightRecorder(), nullptr);
  RecordFlightEvent(FlightEventKind::kError, "nobody listening");  // no crash
}

TEST(FlightRecorderTest, ScopeInstallsAndRestores) {
  // The recorder is reached through the thread's RankEnv: nested scopes
  // route events to the innermost env's ring and restore on exit.
  instrument::RankEnv outer;
  outer.flightrec = std::make_shared<FlightRecorder>(0, 8);
  instrument::RankEnv inner;
  inner.flightrec = std::make_shared<FlightRecorder>(1, 8);
  {
    instrument::RankScope outer_scope(&outer);
    EXPECT_EQ(instrument::CurrentFlightRecorder(), outer.flightrec.get());
    {
      instrument::RankScope inner_scope(&inner);
      RecordFlightEvent(FlightEventKind::kStall, "pipeline.slot_wait", 2,
                        0.5);
    }
    EXPECT_EQ(instrument::CurrentFlightRecorder(), outer.flightrec.get());
  }
  EXPECT_EQ(instrument::CurrentFlightRecorder(), nullptr);
  EXPECT_EQ(outer.flightrec->TotalEvents(), 0u);
  ASSERT_EQ(inner.flightrec->Events().size(), 1u);
  EXPECT_EQ(inner.flightrec->Events()[0].step, 2);
}

// ------------------------------------------------------------ concurrency

TEST(FlightRecorderTest, ConcurrentWritersLoseNothing) {
  FlightRecorder recorder(0, /*capacity=*/8192);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.Record(FlightEventKind::kStep, "solver.step",
                        t * kPerThread + i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(recorder.TotalEvents(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  const auto events = recorder.Events();
  EXPECT_EQ(events.size(), static_cast<std::size_t>(kThreads * kPerThread));
  // Every thread's steps must appear exactly once.
  std::vector<int> seen(kThreads * kPerThread, 0);
  for (const FlightEvent& e : events) {
    ASSERT_GE(e.step, 0);
    ASSERT_LT(e.step, kThreads * kPerThread);
    ++seen[static_cast<std::size_t>(e.step)];
  }
  for (const int count : seen) EXPECT_EQ(count, 1);
}

TEST(FlightRecorderTest, ReadWhileWriteYieldsOnlyWellFormedEvents) {
  FlightRecorder recorder(0, /*capacity=*/32);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      recorder.Record(FlightEventKind::kCommWait, "comm.recv.wait", i++,
                      0.125);
    }
  });
  for (int pass = 0; pass < 200; ++pass) {
    for (const FlightEvent& e : recorder.Events()) {
      // Torn slots are skipped, so every decoded event is fully published.
      EXPECT_EQ(e.kind, FlightEventKind::kCommWait);
      EXPECT_EQ(e.detail, "comm.recv.wait");
      EXPECT_DOUBLE_EQ(e.value, 0.125);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

// ------------------------------------------------------------- JSON dumps

TEST(FlightRecorderTest, WriteJsonDumpsRingWithDropCount) {
  const std::string dir = TempDir("nsm_flightrec_json");
  FlightRecorder recorder(2, 4);
  for (int i = 0; i < 6; ++i) {
    recorder.Record(FlightEventKind::kStep, "solver.step", i);
  }
  recorder.Record(FlightEventKind::kError, "injected \"quoted\" failure");
  const std::string path = dir + "/flightrec_rank2.json";
  ASSERT_TRUE(instrument::WriteFlightRecorderJson(path, recorder));
  const std::string json = Slurp(path);
  EXPECT_NE(json.find("\"rank\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"capacity\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"total_events\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"error\""), std::string::npos);
  EXPECT_NE(json.find("injected \\\"quoted\\\" failure"), std::string::npos);
}

TEST(FlightRecorderTest, WriteJsonToBadPathFailsWithoutArtifacts) {
  const std::string dir = TempDir("nsm_flightrec_badpath");
  FlightRecorder recorder(0, 4);
  recorder.Record(FlightEventKind::kStep, "solver.step", 0);
  EXPECT_FALSE(instrument::WriteFlightRecorderJson(
      dir + "/no/such/dir/flightrec_rank0.json", recorder));
  EXPECT_FALSE(
      std::filesystem::exists(dir + "/no/such/dir/flightrec_rank0.json"));
}

TEST(FlightRecorderTest, AtomicFileLeavesNoPartialFileOnAbandonedWrite) {
  // Satellite guarantee shared by every dump path: a writer that dies
  // mid-write (simulated by destroying the AtomicFile without Commit)
  // leaves the previous destination intact and no temp debris behind.
  const std::string dir = TempDir("nsm_flightrec_atomic");
  const std::string path = dir + "/flightrec_rank0.json";
  {
    instrument::AtomicFile file(path);
    file.Stream() << "{\"complete\": true}\n";
    ASSERT_TRUE(file.Commit());
  }
  {
    instrument::AtomicFile file(path);
    file.Stream() << "{\"truncated";  // mid-write failure: never committed
  }
  EXPECT_EQ(Slurp(path), "{\"complete\": true}\n");
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);  // no temp file left behind
}

TEST(FlightRecorderTest, DumpFlightRecordersWritesEveryLiveRing) {
  const std::string dir = TempDir("nsm_flightrec_dumpall");
  instrument::SetFlightRecorderDumpDir(dir);
  {
    FlightRecorder rank0(0, 8);
    FlightRecorder rank1(1, 8);
    rank0.Record(FlightEventKind::kStep, "solver.step", 5);
    rank1.Record(FlightEventKind::kQueueBlock, "sst.queue_full", 5, 0.5);
    ASSERT_TRUE(instrument::DumpFlightRecorders());
  }
  instrument::SetFlightRecorderDumpDir(".");
  EXPECT_NE(Slurp(dir + "/flightrec_rank0.json").find("solver.step"),
            std::string::npos);
  EXPECT_NE(Slurp(dir + "/flightrec_rank1.json").find("sst.queue_full"),
            std::string::npos);
}

// ------------------------------------------------------ runtime integration

TEST(FlightRecorderRuntimeTest, RunResultAlwaysCarriesRecorders) {
  // No telemetry opt-in at all: the recorders are still installed and
  // returned (the whole point — evidence for failures nobody opted into).
  auto result = mpimini::Runtime::Run(3, [](mpimini::Comm& comm) {
    RecordFlightEvent(FlightEventKind::kStep, "solver.step", comm.Rank());
  });
  ASSERT_EQ(result.flight_recorders.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    const auto& recorder = result.flight_recorders[static_cast<std::size_t>(r)];
    ASSERT_NE(recorder, nullptr);
    EXPECT_EQ(recorder->Rank(), r);
    const auto events = recorder->Events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].step, r);
  }
}

TEST(FlightRecorderRuntimeTest, RankErrorDumpsRingsNamingTheFailure) {
  const std::string dir = TempDir("nsm_flightrec_crash");
  instrument::SetFlightRecorderDumpDir(dir);
  EXPECT_THROW(
      mpimini::Runtime::Run(2,
                            [](mpimini::Comm& comm) {
                              RecordFlightEvent(FlightEventKind::kStep,
                                                "solver.step", 4);
                              if (comm.Rank() == 1) {
                                throw std::runtime_error(
                                    "bridge exploded at step 4");
                              }
                            }),
      std::runtime_error);
  instrument::SetFlightRecorderDumpDir(".");
  // Every rank's ring landed, and the failing rank's tail names the step
  // entered and the error that killed it.
  EXPECT_TRUE(std::filesystem::exists(dir + "/flightrec_rank0.json"));
  const std::string rank1 = Slurp(dir + "/flightrec_rank1.json");
  EXPECT_NE(rank1.find("\"kind\": \"step\""), std::string::npos);
  EXPECT_NE(rank1.find("solver.step"), std::string::npos);
  EXPECT_NE(rank1.find("\"kind\": \"error\""), std::string::npos);
  EXPECT_NE(rank1.find("bridge exploded at step 4"), std::string::npos);
}

}  // namespace
