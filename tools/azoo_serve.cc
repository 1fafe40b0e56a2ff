/**
 * @file
 * azoo_serve: long-lived match service over a compiled automaton.
 *
 * Loads an automaton (preferably a compiled `.azoox` artifact — the
 * daemon restart path should not re-parse text formats) and serves
 * match sessions over the framed protocol in serve/protocol.hh, on a
 * TCP loopback port or a Unix socket:
 *
 *   azoo_serve --load snort.azoox --listen unix:/tmp/azoo.sock
 *   azoo_serve --automaton x.mnrl --listen tcp:0   # prints the port
 *
 * --engine nfa|auto picks the session cursor (other names are usage
 * errors); reloads keep the startup engine and plan.
 *
 * The robustness surface (see docs/ARCHITECTURE.md "Running as a
 * service"):
 *   --max-sessions / --memory-budget   admission control
 *   --queue-budget                     per-session backpressure bound
 *   --session-deadline-ms /
 *       --session-symbol-budget        per-session QoS (truncated,
 *                                      exact replies — never hangs)
 *   SIGTERM / SIGINT                   graceful drain: stop accepting,
 *                                      flush in-flight sessions,
 *                                      shed stragglers at --drain-ms,
 *                                      exit 0
 *   SIGHUP / RELOAD frame              atomic hot ruleset reload:
 *                                      --reload names the file SIGHUP
 *                                      re-reads (default: the startup
 *                                      ruleset path);
 *                                      --no-remote-reload refuses
 *                                      client RELOAD frames
 *   --metrics-file                     periodic azoo::obs JSON export
 *
 * Chaos schedules arm via the AZOO_FAULT_SPEC environment variable
 * (see util/fault.hh) in fault-injection builds.
 *
 * On startup the daemon prints exactly one readiness line
 * ("listening on <addr>") to stdout; scripts wait for it before
 * connecting. At exit it prints a one-line session census.
 */

#include <iostream>

#include "serve/ruleset.hh"
#include "serve/server.hh"
#include "tool_common.hh"
#include "util/cli.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/net.hh"

using namespace azoo;

int
main(int argc, char **argv)
{
    Cli cli(argc, argv,
            {"load", "automaton", "listen", "engine", "workers",
             "max-sessions", "queue-budget", "memory-budget",
             "session-deadline-ms", "session-symbol-budget",
             "max-report-records", "drain-ms", "linger-ms",
             "no-prefilter", "metrics-file", "metrics-interval-ms",
             "reload", "no-remote-reload"});

    if (Status st = fault::armFromEnv(); !st.ok())
        tool::usageError(cat("azoo_serve: ", st.message()));

    const bool useLoad = cli.has("load");
    const std::string apath = cli.get("automaton");
    if (useLoad && !apath.empty())
        tool::usageError("azoo_serve: --load and --automaton are "
                         "mutually exclusive");
    if (!useLoad && apath.empty())
        tool::usageError("azoo_serve: --load or --automaton is "
                         "required");

    // Generation 1's spec; every reload compiles against it.
    serve::RulesetSpec spec;
    Expected<EngineKind> engine = parseEngine(
        cli.get("engine", "nfa"), {EngineKind::kNfa, EngineKind::kAuto});
    if (!engine.ok())
        tool::usageError(cat("azoo_serve: ", engine.status().message()));
    spec.engine = *engine;
    spec.plan.enablePrefilter = !cli.getBool("no-prefilter");

    serve::ServerOptions opts;
    opts.addr = cli.get("listen", "tcp:0");
    opts.workers = static_cast<size_t>(cli.getInt("workers", 0));
    opts.limits.maxSessions =
        static_cast<size_t>(cli.getInt("max-sessions", 256));
    opts.limits.queueBudgetBytes = static_cast<size_t>(
        cli.getInt("queue-budget", 256 << 10));
    opts.limits.memoryBudgetBytes = static_cast<size_t>(
        cli.getInt("memory-budget", 256 << 20));
    opts.limits.sessionDeadlineMs =
        cli.getInt("session-deadline-ms", 0);
    opts.limits.sessionSymbolBudget = static_cast<uint64_t>(
        cli.getInt("session-symbol-budget", 0));
    opts.limits.maxReportRecords = static_cast<size_t>(
        cli.getInt("max-report-records", 4096));
    opts.drainDeadlineMs = cli.getInt("drain-ms", 5000);
    opts.lingerMs = cli.getInt("linger-ms", 2000);
    opts.metricsFile = cli.get("metrics-file");
    if (opts.metricsFile == "true")
        tool::usageError("azoo_serve: --metrics-file needs a path");
    opts.metricsIntervalMs = cli.getInt("metrics-interval-ms", 1000);
    opts.remoteReload = !cli.getBool("no-remote-reload");

    // Both --load and --automaton route through loadRulesetFile: the
    // startup ruleset is generation 1, built exactly the way a reload
    // builds its successors (same dispatch, same verification).
    const std::string rulesetPath = useLoad ? cli.get("load") : apath;
    if (rulesetPath.empty() || rulesetPath == "true")
        tool::usageError(cat("azoo_serve: --",
                             useLoad ? "load" : "automaton",
                             " needs a file path"));
    Expected<serve::RulesetGeneration> gen =
        serve::loadRulesetFile(rulesetPath, spec, /*epoch=*/1);
    if (!gen.ok()) {
        std::cerr << rulesetPath << ": " << gen.status().str() << "\n";
        return tool::exitCodeFor(gen.status());
    }

    // SIGHUP re-reads --reload if given, else the startup path.
    opts.reloadPath = cli.get("reload", rulesetPath);
    if (opts.reloadPath == "true")
        tool::usageError("azoo_serve: --reload needs a file path");

    net::installTermHandlers();

    serve::Server server(std::move(*gen), opts);
    if (Status st = server.start(); !st.ok()) {
        std::cerr << "azoo_serve: " << st.str() << "\n";
        return tool::exitCodeFor(st);
    }

    // Readiness line: tcp:0 resolves to the kernel-picked port so
    // scripts can parse the address they should dial.
    std::string bound = opts.addr;
    if (bound.rfind("tcp:", 0) == 0)
        bound = cat("tcp:", server.port());
    std::cout << "listening on " << bound << " (capacity "
              << server.capacity() << " sessions)" << std::endl;

    const int rc = server.run();

    const serve::ServerStats &s = server.stats();
    std::cout << "served: " << s.admitted << " admitted, "
              << s.replied << " replied, " << s.rejected
              << " rejected, " << s.shed << " shed, " << s.aborted
              << " aborted, " << s.protocolErrors
              << " protocol errors, " << s.reloads << " reloads ("
              << s.reloadFailures << " failed); drain "
              << (s.drainNs / 1000000) << " ms" << std::endl;
    return rc;
}
