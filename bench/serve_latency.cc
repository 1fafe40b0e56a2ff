/**
 * @file
 * serve_latency: latency/throughput harness for azoo_serve.
 *
 * Drives many protocol sessions against a match service and reports
 * per-session latency percentiles (p50/p99/p999), session throughput,
 * and byte throughput, plus a census of reply statuses (ok /
 * truncated / rejected / shed / failed) — under load shedding the
 * *distribution* of outcomes is the result, not a failure.
 *
 * Two targets:
 *   --connect ADDR   measure an externally started azoo_serve
 *                    (sessions stream seeded pseudo-random bytes);
 *   (default)        self-host: generate a zoo benchmark (--name,
 *                    default Snort), run a serve::Server in-process,
 *                    and stream slices of the benchmark's standard
 *                    input so the match density is realistic.
 *
 * Two load models:
 *   closed loop (default)    --threads workers, each opening the next
 *                            session as soon as its previous one
 *                            finishes — measures service latency;
 *   --open-rate R            sessions arrive at R/sec regardless of
 *                            completions (latency is measured from
 *                            the scheduled arrival, so queueing
 *                            delay counts) — measures behaviour at a
 *                            fixed offered load.
 *
 * --json PATH emits an azoo-bench-1 report (CI's bench-smoke checks
 * the committed BENCH_9.json against this schema).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "bench/common.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "zoo/registry.hh"

using namespace azoo;

namespace {

using Clock = std::chrono::steady_clock;

struct SessionOutcome {
    uint64_t latencyNs = 0;
    serve::ReplyStatus status = serve::ReplyStatus::kServerError;
    uint64_t bytes = 0;
    bool transportOk = false;
};

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

/** One full session against @p addr; records outcome into @p out. */
void
runSession(const std::string &addr, uint8_t priority,
           const uint8_t *payload, size_t len, size_t chunk,
           SessionOutcome &out)
{
    const auto t0 = Clock::now();
    serve::Client client;
    if (!client.connect(addr).ok())
        return;
    if (!client.open(priority).ok())
        return;
    if (!client.admitted()) {
        out.transportOk = true;
        out.status = client.reply().status;
        out.latencyNs = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
        return;
    }
    for (size_t pos = 0; pos < len; pos += chunk) {
        const size_t n = std::min(chunk, len - pos);
        if (!client.send(payload + pos, n).ok())
            break; // shed mid-stream: the REPLY may still be waiting
    }
    Expected<serve::Reply> r = client.finish();
    out.latencyNs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - t0)
            .count());
    if (!r.ok())
        return;
    out.transportOk = true;
    out.status = r->status;
    out.bytes = r->symbols;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> extra = {
        "connect", "name",     "engine",   "listen", "sessions",
        "bytes",   "chunk",    "priority", "open-rate", "json",
        "max-sessions", "session-deadline-ms"};
    bench::BenchConfig cfg;
    Cli cli(argc, argv,
            [&] {
                std::vector<std::string> known = {
                    "scale", "input", "sim", "seed", "full", "threads"};
                known.insert(known.end(), extra.begin(), extra.end());
                return known;
            }());
    cfg.zoo.scale = cli.getDouble("scale", 0.05);
    if (cli.getBool("full"))
        cfg.zoo.scale = 1.0;
    cfg.zoo.inputBytes =
        static_cast<size_t>(cli.getInt("input", 1 << 20));
    cfg.zoo.seed = static_cast<uint64_t>(cli.getInt("seed", 42));
    cfg.threads = static_cast<size_t>(cli.getInt("threads", 4));
    if (cfg.threads == 0)
        cfg.threads = 1;

    const Expected<EngineKind> engine = parseEngine(
        cli.get("engine", "nfa"), {EngineKind::kNfa, EngineKind::kAuto});
    if (!engine.ok())
        usageError(cat("serve_latency: ", engine.status().message()));
    const std::string connectAddr = cli.get("connect");
    const bool selfHost = connectAddr.empty();
    const std::string name = cli.get("name", "Snort");
    const auto sessions =
        static_cast<size_t>(cli.getInt("sessions", 200));
    const auto bytesPer =
        static_cast<size_t>(cli.getInt("bytes", 64 << 10));
    const auto chunk =
        static_cast<size_t>(cli.getInt("chunk", 4 << 10));
    const auto priority =
        static_cast<uint8_t>(cli.getInt("priority", 100));
    const double openRate = cli.getDouble("open-rate", 0.0);

    // Per-session payloads: realistic input slices when self-hosting,
    // seeded noise otherwise. Built up front so the timed region is
    // pure protocol + matching.
    std::vector<uint8_t> corpus;
    std::string benchLabel;
    std::unique_ptr<serve::Server> server;
    std::unique_ptr<Automaton> automaton;
    std::thread serverThread;
    std::string addr = connectAddr;

    if (selfHost) {
        zoo::Benchmark b = zoo::makeBenchmark(name, cfg.zoo);
        corpus = std::move(b.input);
        benchLabel = b.name;
        automaton = std::make_unique<Automaton>(
            std::move(b.automaton));
        serve::ServerOptions sopts;
        sopts.addr = cli.get("listen", "tcp:0");
        sopts.limits.maxSessions = static_cast<size_t>(
            cli.getInt("max-sessions", 256));
        sopts.limits.sessionDeadlineMs =
            cli.getInt("session-deadline-ms", 0);
        server = std::make_unique<serve::Server>(
            serve::makeInlineRuleset(
                *automaton, {*engine, PlanOptions(), ParseLimits()}),
            sopts);
        if (Status st = server->start(); !st.ok())
            fatal(cat("serve_latency: ", st.str()));
        if (sopts.addr.rfind("tcp:", 0) == 0)
            addr = cat("tcp:", server->port());
        else
            addr = sopts.addr;
        serverThread = std::thread([&] { server->run(); });
    } else {
        benchLabel = "external";
        Rng rng(cfg.zoo.seed);
        corpus.resize(std::max<size_t>(bytesPer * 4, 1 << 20));
        for (auto &c : corpus)
            c = static_cast<uint8_t>(rng.next());
    }
    if (corpus.size() < bytesPer)
        corpus.resize(bytesPer, 0);

    std::vector<SessionOutcome> outcomes(sessions);
    std::atomic<size_t> nextSession{0};
    const auto benchStart = Clock::now();

    auto sessionPayload = [&](size_t i) -> const uint8_t * {
        // Rotate the slice start so concurrent sessions exercise
        // different regions (deterministic in i).
        const size_t span = corpus.size() - bytesPer;
        const size_t off =
            span ? (i * 40503 + cfg.zoo.seed) % span : 0;
        return corpus.data() + off;
    };

    std::vector<std::thread> workers;
    workers.reserve(cfg.threads);
    for (size_t w = 0; w < cfg.threads; ++w) {
        workers.emplace_back([&] {
            for (;;) {
                const size_t i = nextSession.fetch_add(1);
                if (i >= sessions)
                    return;
                auto t0 = Clock::now();
                if (openRate > 0) {
                    // Open-loop: session i is *scheduled* at
                    // benchStart + i/rate; latency counts any lag.
                    const auto at = benchStart +
                        std::chrono::nanoseconds(static_cast<int64_t>(
                            1e9 * static_cast<double>(i) / openRate));
                    std::this_thread::sleep_until(at);
                    t0 = at;
                }
                runSession(addr, priority, sessionPayload(i),
                           bytesPer, chunk, outcomes[i]);
                if (openRate > 0) {
                    outcomes[i].latencyNs = static_cast<uint64_t>(
                        std::chrono::duration_cast<
                            std::chrono::nanoseconds>(Clock::now() -
                                                      t0)
                            .count());
                }
            }
        });
    }
    for (auto &t : workers)
        t.join();
    const double secs =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            Clock::now() - benchStart)
            .count();

    if (server) {
        server->requestShutdown();
        serverThread.join();
    }

    uint64_t ok = 0, truncated = 0, rejected = 0, shed = 0,
             failed = 0, totalBytes = 0;
    std::vector<uint64_t> lat;
    lat.reserve(sessions);
    for (const SessionOutcome &o : outcomes) {
        if (!o.transportOk) {
            ++failed;
            continue;
        }
        lat.push_back(o.latencyNs);
        totalBytes += o.bytes;
        switch (o.status) {
          case serve::ReplyStatus::kOk: ++ok; break;
          case serve::ReplyStatus::kTruncated: ++truncated; break;
          case serve::ReplyStatus::kShedOverload:
          case serve::ReplyStatus::kShedDrain: ++shed; break;
          default: ++rejected; break;
        }
    }
    std::sort(lat.begin(), lat.end());
    const uint64_t p50 = percentile(lat, 0.50);
    const uint64_t p99 = percentile(lat, 0.99);
    const uint64_t p999 = percentile(lat, 0.999);
    const double sessionsPerSec =
        secs > 0 ? static_cast<double>(sessions) / secs : 0;
    const double mbPerSec = secs > 0
        ? static_cast<double>(totalBytes) / secs / 1e6
        : 0;

    std::cout << benchLabel << " @ " << addr << ": " << sessions
              << " sessions, " << cfg.threads << " client threads"
              << (openRate > 0
                      ? cat(", open-loop ", openRate, "/s")
                      : std::string(", closed-loop"))
              << "\n";
    std::cout << "  latency p50 " << (p50 / 1000) << " us, p99 "
              << (p99 / 1000) << " us, p99.9 " << (p999 / 1000)
              << " us\n";
    std::cout << "  throughput " << Table::fixed(sessionsPerSec, 1)
              << " sessions/s, " << Table::fixed(mbPerSec, 1)
              << " MB/s matched\n";
    std::cout << "  outcomes: " << ok << " ok, " << truncated
              << " truncated, " << rejected << " rejected, " << shed
              << " shed, " << failed << " failed\n";

    bench::JsonReport report("serve_latency");
    bench::JsonRow row;
    row.benchmark = benchLabel;
    row.engine = engineName(*engine);
    row.threads = cfg.threads;
    row.symbolsPerSec =
        secs > 0 ? static_cast<double>(totalBytes) / secs : 0;
    row.extra = {
        {"sessions", static_cast<double>(sessions)},
        {"sessions_per_sec", sessionsPerSec},
        {"p50_ns", static_cast<double>(p50)},
        {"p99_ns", static_cast<double>(p99)},
        {"p999_ns", static_cast<double>(p999)},
        {"ok", static_cast<double>(ok)},
        {"truncated", static_cast<double>(truncated)},
        {"rejected", static_cast<double>(rejected)},
        {"shed", static_cast<double>(shed)},
        {"failed", static_cast<double>(failed)},
        {"open_loop", openRate > 0 ? 1.0 : 0.0},
    };
    report.add(std::move(row));
    report.writeFile(cli.get("json"));

    // Sessions the server never answered are a harness failure in a
    // healthy closed-loop run.
    return failed == 0 ? 0 : 1;
}
