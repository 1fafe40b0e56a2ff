/**
 * @file
 * Parallel execution layer tests: ThreadPool correctness, and the
 * ParallelRunner determinism guarantee — batch and component-sharded
 * results equal the (canonicalized) serial engine for every thread
 * count, under chunked feeding, and on zero-length streams. Run
 * under -fsanitize=thread in CI to catch data races in the pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <numeric>
#include <string>

#include "core/builder.hh"
#include "engine/nfa_engine.hh"
#include "engine/parallel_runner.hh"
#include "util/thread_pool.hh"
#include "zoo/registry.hh"

namespace azoo {
namespace {

zoo::ZooConfig
tinyConfig()
{
    zoo::ZooConfig cfg;
    cfg.scale = 0.01;
    cfg.inputBytes = 32 * 1024;
    return cfg;
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(hits.size(),
                     [&](size_t i) { hits[i].fetch_add(1); });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForHandlesDegenerateSizes)
{
    ThreadPool pool(3);
    int calls = 0;
    pool.parallelFor(0, [&](size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    std::atomic<int> one{0};
    pool.parallelFor(1, [&](size_t) { one.fetch_add(1); });
    EXPECT_EQ(one.load(), 1);
}

TEST(ThreadPool, SlotIndexedParallelForGivesExclusiveSlots)
{
    ThreadPool pool(4);
    std::array<std::atomic<int>, 4> inSlot{};
    std::atomic<bool> badSlot{false}, clash{false};
    std::vector<std::atomic<int>> hits(500);
    pool.parallelFor(hits.size(), [&](size_t slot, size_t i) {
        if (slot >= 4)
            badSlot.store(true);
        else if (inSlot[slot].fetch_add(1) != 0)
            clash.store(true);
        hits[i].fetch_add(1);
        if (slot < 4)
            inSlot[slot].fetch_sub(1);
    });
    EXPECT_FALSE(badSlot.load());
    EXPECT_FALSE(clash.load()) << "two tasks shared a slot at once";
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PostRunsEveryTask)
{
    constexpr int kTasks = 256;
    ThreadPool pool(4);
    std::atomic<int> sum{0};
    std::latch done(kTasks);
    for (int i = 0; i < kTasks; ++i) {
        pool.post([&, i] {
            sum.fetch_add(i);
            done.count_down();
        });
    }
    done.wait();
    EXPECT_EQ(sum.load(), kTasks * (kTasks - 1) / 2);
}

TEST(ThreadPool, SingleWorkerStillCompletes)
{
    ThreadPool pool(1);
    std::vector<int> out(64, 0);
    pool.parallelFor(out.size(), [&](size_t i) { out[i] = 1; });
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 64);
}

/** Benchmarks covering plain STEs, all-input heavy graphs, and
 *  counters with reset edges. Held as std::string so the printed
 *  test parameter (and so the ctest name) is the benchmark name,
 *  not a pointer address that changes from run to run. */
const std::string kZooCases[] = {"Snort", "Protomata",
                                 "Seq. Match 6w 6p wC"};

class ParallelVsSerial
    : public testing::TestWithParam<std::tuple<std::string, size_t>>
{
};

TEST_P(ParallelVsSerial, ShardedMatchesSerial)
{
    const auto [name, threads] = GetParam();
    zoo::Benchmark b = zoo::makeBenchmark(name, tinyConfig());
    const size_t simLen = std::min<size_t>(b.input.size(), 16 * 1024);

    SimOptions sim;
    sim.countByCode = true;
    NfaEngine serial(b.automaton);
    SimResult expect = serial.simulate(b.input.data(), simLen, sim);
    canonicalizeReports(expect);

    ParallelOptions popts;
    popts.threads = threads;
    popts.sim = sim;
    ParallelRunner runner(b.automaton, popts);
    EXPECT_EQ(runner.threads(), threads);
    EXPECT_LE(runner.shardCount(), threads);
    SimResult got = runner.simulateSharded(b.input.data(), simLen);

    EXPECT_EQ(got.symbols, expect.symbols);
    EXPECT_EQ(got.reportCount, expect.reportCount);
    EXPECT_EQ(got.totalEnabled, expect.totalEnabled);
    EXPECT_EQ(got.reportingCycles, expect.reportingCycles);
    EXPECT_EQ(got.byCode, expect.byCode);
    EXPECT_EQ(got.reports, expect.reports);

    // Same run on the lazy-DFA engine, with a budget small enough
    // that large components flush mid-stream: still bit-identical.
    ParallelOptions lazyOpts = popts;
    lazyOpts.engine = ParallelEngine::kLazyDfa;
    lazyOpts.lazyCacheBytes = 64 * 1024;
    ParallelRunner lazyRunner(b.automaton, lazyOpts);
    SimResult lgot = lazyRunner.simulateSharded(b.input.data(), simLen);
    EXPECT_EQ(lgot.reportCount, expect.reportCount);
    EXPECT_EQ(lgot.totalEnabled, expect.totalEnabled);
    EXPECT_EQ(lgot.reportingCycles, expect.reportingCycles);
    EXPECT_EQ(lgot.byCode, expect.byCode);
    EXPECT_EQ(lgot.reports, expect.reports);
}

TEST_P(ParallelVsSerial, BatchMatchesPerStreamSerial)
{
    const auto [name, threads] = GetParam();
    zoo::Benchmark b = zoo::makeBenchmark(name, tinyConfig());

    // Unequal stream lengths exercise the stealing/balancing path.
    std::vector<std::vector<uint8_t>> streams;
    const size_t cuts[] = {0, 1000, 1100, 5000, 13000, 16000};
    for (size_t i = 0; i + 1 < std::size(cuts); ++i) {
        streams.emplace_back(b.input.begin() + cuts[i],
                             b.input.begin() + cuts[i + 1]);
    }
    // The whole input too: at this scale the cut streams carry no
    // reports, and every batch mode must be checked on some.
    streams.push_back(b.input);

    NfaEngine serial(b.automaton);
    ParallelOptions popts;
    popts.threads = threads;
    ParallelRunner runner(b.automaton, popts);
    BatchResult got = runner.runBatch(streams);

    ParallelOptions lazyOpts = popts;
    lazyOpts.engine = ParallelEngine::kLazyDfa;
    ParallelRunner lazyRunner(b.automaton, lazyOpts);
    BatchResult lgot = lazyRunner.runBatch(streams);

    ParallelOptions chunkOpts = popts;
    chunkOpts.chunkBytes = 37;
    ParallelRunner chunkRunner(b.automaton, chunkOpts);
    BatchResult cgot = chunkRunner.runBatch(streams);

    ASSERT_EQ(got.perStream.size(), streams.size());
    ASSERT_EQ(lgot.perStream.size(), streams.size());
    ASSERT_EQ(cgot.perStream.size(), streams.size());
    uint64_t symbols = 0, reports = 0;
    for (size_t i = 0; i < streams.size(); ++i) {
        SimResult expect = serial.simulate(streams[i]);
        canonicalizeReports(expect);
        EXPECT_EQ(got.perStream[i].symbols, expect.symbols) << i;
        EXPECT_EQ(got.perStream[i].reportCount, expect.reportCount)
            << i;
        EXPECT_EQ(got.perStream[i].totalEnabled, expect.totalEnabled)
            << i;
        EXPECT_EQ(got.perStream[i].reports, expect.reports) << i;
        EXPECT_EQ(lgot.perStream[i].reportCount, expect.reportCount)
            << i;
        EXPECT_EQ(lgot.perStream[i].totalEnabled, expect.totalEnabled)
            << i;
        EXPECT_EQ(lgot.perStream[i].reports, expect.reports) << i;
        EXPECT_EQ(cgot.perStream[i].symbols, expect.symbols) << i;
        EXPECT_EQ(cgot.perStream[i].reportCount, expect.reportCount)
            << i;
        EXPECT_EQ(cgot.perStream[i].reportingCycles,
                  expect.reportingCycles)
            << i;
        EXPECT_EQ(cgot.perStream[i].reports, expect.reports) << i;
        symbols += expect.symbols;
        reports += expect.reportCount;
    }
    EXPECT_EQ(got.totalSymbols, symbols);
    EXPECT_EQ(got.totalReports, reports);
    EXPECT_EQ(lgot.totalSymbols, symbols);
    EXPECT_EQ(lgot.totalReports, reports);
}

INSTANTIATE_TEST_SUITE_P(
    ZooThreads, ParallelVsSerial,
    testing::Combine(testing::ValuesIn(kZooCases),
                     testing::Values<size_t>(1, 2, 7)));

TEST(ParallelRunner, ChunkedBatchEqualsMonolithicBatch)
{
    zoo::Benchmark b =
        zoo::makeBenchmark("Seq. Match 6w 6p wC", tinyConfig());
    std::vector<std::vector<uint8_t>> streams;
    for (size_t i = 0; i < 4; ++i) {
        streams.emplace_back(b.input.begin() + i * 2048,
                             b.input.begin() + (i + 1) * 2048);
    }

    ParallelOptions mono;
    mono.threads = 3;
    ParallelRunner monoRunner(b.automaton, mono);
    BatchResult want = monoRunner.runBatch(streams);

    // A chunk size that divides nothing evenly, so counter state and
    // in-flight matches must survive feed boundaries on every stream.
    ParallelOptions chunked = mono;
    chunked.chunkBytes = 37;
    ParallelRunner chunkedRunner(b.automaton, chunked);
    BatchResult got = chunkedRunner.runBatch(streams);

    ASSERT_EQ(got.perStream.size(), want.perStream.size());
    for (size_t i = 0; i < want.perStream.size(); ++i) {
        EXPECT_EQ(got.perStream[i].reports, want.perStream[i].reports)
            << i;
        EXPECT_EQ(got.perStream[i].totalEnabled,
                  want.perStream[i].totalEnabled)
            << i;
    }
    EXPECT_EQ(got.totalSymbols, want.totalSymbols);
    EXPECT_EQ(got.totalReports, want.totalReports);
}

TEST(ParallelRunner, ZeroLengthStreams)
{
    Automaton a("t");
    addLiteral(a, "ab", StartType::kAllInput, true, 1);

    ParallelOptions popts;
    popts.threads = 2;
    ParallelRunner runner(a, popts);

    // Batch mixing empty and non-empty streams.
    std::vector<std::vector<uint8_t>> streams = {
        {}, {'x', 'a', 'b'}, {}};
    BatchResult br = runner.runBatch(streams);
    ASSERT_EQ(br.perStream.size(), 3u);
    EXPECT_EQ(br.perStream[0].symbols, 0u);
    EXPECT_EQ(br.perStream[0].reportCount, 0u);
    EXPECT_EQ(br.perStream[1].reportCount, 1u);
    EXPECT_EQ(br.perStream[2].reportCount, 0u);
    EXPECT_EQ(br.totalSymbols, 3u);
    EXPECT_EQ(br.totalReports, 1u);

    // Empty batch and zero-length sharded input.
    EXPECT_TRUE(runner.runBatch({}).perStream.empty());
    SimResult sharded = runner.simulateSharded(nullptr, 0);
    EXPECT_EQ(sharded.symbols, 0u);
    EXPECT_EQ(sharded.reportCount, 0u);
}

TEST(ParallelRunner, SingleComponentGetsOneShard)
{
    Automaton a("t");
    addLiteral(a, "abcd", StartType::kAllInput, true, 1);
    ParallelOptions popts;
    popts.threads = 7;
    ParallelRunner runner(a, popts);
    EXPECT_EQ(runner.shardCount(), 1u);

    std::string text = "zzabcdzzabcd";
    std::vector<uint8_t> in(text.begin(), text.end());
    NfaEngine serial(a);
    SimResult expect = serial.simulate(in);
    canonicalizeReports(expect);
    SimResult got = runner.simulateSharded(in);
    EXPECT_EQ(got.reports, expect.reports);
    EXPECT_EQ(got.totalEnabled, expect.totalEnabled);
}

TEST(ParallelRunner, ShardedHonorsRecordingOptions)
{
    // Three single-literal components, each reporting often.
    Automaton a("t");
    addLiteral(a, "a", StartType::kAllInput, true, 1);
    addLiteral(a, "b", StartType::kAllInput, true, 2);
    addLiteral(a, "ab", StartType::kAllInput, true, 3);
    const std::string text = "ababababababab";
    std::vector<uint8_t> in(text.begin(), text.end());

    ParallelOptions popts;
    popts.threads = 3;
    popts.sim.recordReports = false;
    ParallelRunner runner(a, popts);
    EXPECT_EQ(runner.shardCount(), 3u);
    SimResult off = runner.simulateSharded(in);
    EXPECT_TRUE(off.reports.empty());
    EXPECT_GT(off.reportCount, 10u);

    popts.sim.recordReports = true;
    popts.sim.reportRecordLimit = 5;
    ParallelRunner capped(a, popts);
    SimResult few = capped.simulateSharded(in);
    EXPECT_EQ(few.reports.size(), 5u);
    EXPECT_EQ(few.reportCount, off.reportCount);
}

TEST(Zoo, BuildSuiteParallelIsDeterministic)
{
    const std::vector<std::string> names = {"Snort", "Protomata",
                                            "File Carving"};
    zoo::ZooConfig cfg = tinyConfig();
    std::vector<zoo::Benchmark> suite = zoo::buildSuite(names, cfg, 4);
    ASSERT_EQ(suite.size(), names.size());
    for (size_t i = 0; i < names.size(); ++i) {
        zoo::Benchmark want = zoo::makeBenchmark(names[i], cfg);
        EXPECT_EQ(suite[i].name, want.name);
        EXPECT_EQ(suite[i].automaton.size(), want.automaton.size());
        EXPECT_EQ(suite[i].automaton.edgeCount(),
                  want.automaton.edgeCount());
        EXPECT_EQ(suite[i].input, want.input);
    }
}

} // namespace
} // namespace azoo
