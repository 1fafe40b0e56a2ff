/**
 * @file
 * reload_swap: hot-ruleset-reload cost harness for azoo_serve.
 *
 * Measures the two numbers that decide whether live reload is usable
 * in production:
 *
 *  - **Swap latency**: RELOAD-request-to-kOk-reply round trip, which
 *    covers the off-loop load + verify + pool build and the on-loop
 *    publication. Reported as p50/p99 over --swaps swaps.
 *
 *  - **p99 disturbance**: session latency p99 while swaps are landing
 *    divided by a baseline p99 measured under identical load with no
 *    swaps. A generation-pinned swap never stalls in-flight sessions,
 *    so this ratio should stay near 1 — the point of the epoch design
 *    is that reload cost lands on a worker thread, not on the p99.
 *
 * Self-hosts a serve::Server over a zoo benchmark (--name, default
 * Snort), writes its automaton to a temp ruleset file, and reloads
 * that file repeatedly while a closed-loop session load runs. Two
 * phases under the same load shape: baseline (no swaps), then the
 * swap phase. --json emits an azoo-bench-1 report (CI's bench-smoke
 * checks the committed BENCH_10.json against this schema).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench/common.hh"
#include "core/serialize.hh"
#include "serve/client.hh"
#include "serve/ruleset.hh"
#include "serve/server.hh"
#include "util/table.hh"
#include "zoo/registry.hh"

using namespace azoo;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t
percentile(std::vector<uint64_t> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    size_t idx = static_cast<size_t>(
        q * static_cast<double>(sorted.size()));
    if (idx >= sorted.size())
        idx = sorted.size() - 1;
    return sorted[idx];
}

uint64_t
nsSince(Clock::time_point t0)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - t0)
            .count());
}

struct PhaseResult {
    std::vector<uint64_t> latNs; ///< sorted on return
    uint64_t ok = 0;
    uint64_t other = 0;  ///< transport OK, reply not kOk
    uint64_t failed = 0; ///< no reply at all
};

/** Closed-loop load: @p sessions sessions over @p threads workers. */
PhaseResult
runPhase(const std::string &addr, const std::vector<uint8_t> &corpus,
         size_t sessions, size_t bytesPer, size_t chunk,
         size_t threads, uint64_t seed)
{
    PhaseResult res;
    std::vector<uint64_t> lat(sessions, 0);
    std::vector<uint8_t> outcome(sessions, 0); // 0 fail, 1 ok, 2 other
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (size_t w = 0; w < threads; ++w) {
        workers.emplace_back([&] {
            for (;;) {
                const size_t i = next.fetch_add(1);
                if (i >= sessions)
                    return;
                const size_t span = corpus.size() - bytesPer;
                const size_t off =
                    span ? (i * 40503 + seed) % span : 0;
                const uint8_t *payload = corpus.data() + off;
                const auto t0 = Clock::now();
                serve::Client c;
                if (!c.connect(addr).ok() || !c.open(100).ok())
                    continue;
                if (!c.admitted()) {
                    lat[i] = nsSince(t0);
                    outcome[i] = 2;
                    continue;
                }
                for (size_t pos = 0; pos < bytesPer; pos += chunk) {
                    const size_t n = std::min(chunk, bytesPer - pos);
                    if (!c.send(payload + pos, n).ok())
                        break;
                }
                Expected<serve::Reply> r = c.finish();
                lat[i] = nsSince(t0);
                if (!r.ok())
                    continue;
                outcome[i] =
                    r->status == serve::ReplyStatus::kOk ? 1 : 2;
            }
        });
    }
    for (auto &t : workers)
        t.join();
    for (size_t i = 0; i < sessions; ++i) {
        if (outcome[i] == 0) {
            ++res.failed;
            continue;
        }
        res.latNs.push_back(lat[i]);
        if (outcome[i] == 1)
            ++res.ok;
        else
            ++res.other;
    }
    std::sort(res.latNs.begin(), res.latNs.end());
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli(argc, argv,
            {"name", "engine", "scale", "input", "seed", "sessions",
             "bytes", "chunk", "threads", "swaps", "json"});
    zoo::ZooConfig zcfg;
    zcfg.scale = cli.getDouble("scale", 0.05);
    zcfg.inputBytes =
        static_cast<size_t>(cli.getInt("input", 1 << 20));
    zcfg.seed = static_cast<uint64_t>(cli.getInt("seed", 42));
    const std::string name = cli.get("name", "Snort");
    const auto sessions =
        static_cast<size_t>(cli.getInt("sessions", 200));
    const auto bytesPer =
        static_cast<size_t>(cli.getInt("bytes", 32 << 10));
    const auto chunk =
        static_cast<size_t>(cli.getInt("chunk", 4 << 10));
    auto threads = static_cast<size_t>(cli.getInt("threads", 4));
    if (threads == 0)
        threads = 1;
    const auto swaps =
        static_cast<size_t>(cli.getInt("swaps", 20));
    const Expected<EngineKind> engine = parseEngine(
        cli.get("engine", "nfa"), {EngineKind::kNfa, EngineKind::kAuto});
    if (!engine.ok())
        usageError(cat("reload_swap: ", engine.status().message()));

    zoo::Benchmark b = zoo::makeBenchmark(name, zcfg);
    std::vector<uint8_t> corpus = std::move(b.input);
    if (corpus.size() < bytesPer)
        corpus.resize(bytesPer, 0);

    // The reload source: the same ruleset the server starts with, so
    // every swap is a realistic full load+verify+pool-build of a
    // production-sized automaton.
    const std::string rulesetPath =
        cat("/tmp/azoo-reload-swap-", ::getpid(), ".azml");
    saveAzml(rulesetPath, b.automaton);

    serve::Server server(
        serve::makeInlineRuleset(b.automaton,
                                 {*engine, PlanOptions(), ParseLimits()}),
        serve::ServerOptions());
    if (Status st = server.start(); !st.ok())
        fatal(cat("reload_swap: ", st.str()));
    const std::string addr = cat("tcp:", server.port());
    std::thread serverThread([&] { server.run(); });

    // Phase 1: baseline latency under load, no swaps.
    const auto warmup = runPhase(addr, corpus, threads * 4, bytesPer,
                                 chunk, threads, zcfg.seed);
    (void)warmup;
    PhaseResult baseline = runPhase(addr, corpus, sessions, bytesPer,
                                    chunk, threads, zcfg.seed);

    // Phase 2: identical load with a reloader hammering swaps.
    std::atomic<bool> loadDone{false};
    std::vector<uint64_t> swapNs;
    std::atomic<uint64_t> swapFailures{0};
    std::thread reloader([&] {
        while (!loadDone.load() && swapNs.size() < swaps) {
            const auto t0 = Clock::now();
            serve::Client ctl;
            if (!ctl.connect(addr).ok()) {
                ++swapFailures;
                continue;
            }
            Expected<serve::Reply> r = ctl.reload(rulesetPath);
            if (r.ok() && r->status == serve::ReplyStatus::kOk)
                swapNs.push_back(nsSince(t0));
            else
                ++swapFailures;
            ctl.close();
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
    });
    const auto phaseStart = Clock::now();
    PhaseResult during = runPhase(addr, corpus, sessions, bytesPer,
                                  chunk, threads, zcfg.seed + 1);
    const double duringSecs =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            Clock::now() - phaseStart)
            .count();
    loadDone.store(true);
    reloader.join();

    server.requestShutdown();
    serverThread.join();
    ::remove(rulesetPath.c_str());

    std::sort(swapNs.begin(), swapNs.end());
    const uint64_t swapP50 = percentile(swapNs, 0.50);
    const uint64_t swapP99 = percentile(swapNs, 0.99);
    const uint64_t baseP99 = percentile(baseline.latNs, 0.99);
    const uint64_t duringP50 = percentile(during.latNs, 0.50);
    const uint64_t duringP99 = percentile(during.latNs, 0.99);
    const uint64_t duringP999 = percentile(during.latNs, 0.999);
    const double disturbance = baseP99 > 0
        ? static_cast<double>(duringP99) /
            static_cast<double>(baseP99)
        : 0;
    const double sessionsPerSec = duringSecs > 0
        ? static_cast<double>(sessions) / duringSecs
        : 0;

    std::cout << b.name << " @ " << addr << ": " << sessions
              << " sessions/phase, " << threads
              << " client threads, " << swapNs.size()
              << " swaps landed (" << swapFailures.load()
              << " failed)\n";
    std::cout << "  swap latency p50 " << (swapP50 / 1000)
              << " us, p99 " << (swapP99 / 1000) << " us\n";
    std::cout << "  session p99 baseline " << (baseP99 / 1000)
              << " us, during swaps " << (duringP99 / 1000)
              << " us (disturbance x"
              << Table::fixed(disturbance, 2) << ")\n";
    std::cout << "  outcomes during swaps: " << during.ok << " ok, "
              << during.other << " other, " << during.failed
              << " failed; stats: " << server.stats().reloads
              << " reloads published\n";

    bench::JsonReport report("reload_swap");
    bench::JsonRow row;
    row.benchmark = b.name;
    row.engine = engineName(*engine);
    row.threads = threads;
    row.extra = {
        {"sessions", static_cast<double>(sessions)},
        {"sessions_per_sec", sessionsPerSec},
        {"p50_ns", static_cast<double>(duringP50)},
        {"p99_ns", static_cast<double>(duringP99)},
        {"p999_ns", static_cast<double>(duringP999)},
        {"ok", static_cast<double>(during.ok)},
        {"failed", static_cast<double>(during.failed)},
        {"swaps", static_cast<double>(swapNs.size())},
        {"swap_p50_ns", static_cast<double>(swapP50)},
        {"swap_p99_ns", static_cast<double>(swapP99)},
        {"baseline_p99_ns", static_cast<double>(baseP99)},
        {"during_p99_ns", static_cast<double>(duringP99)},
        {"p99_disturbance", disturbance},
    };
    report.add(std::move(row));
    report.writeFile(cli.get("json"));

    // A healthy run lands every requested swap and answers every
    // session; losing either is a harness failure.
    return (during.failed == 0 && !swapNs.empty()) ? 0 : 1;
}
