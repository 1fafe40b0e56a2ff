/**
 * @file
 * Streaming network-intrusion-detection example.
 *
 * Compiles the Snort benchmark's clean ruleset and feeds packet
 * buffers through a PlannedSession (a cursor over the ruleset's
 * compiled interpreter program) the way a live IDS tap would:
 * chunk by chunk, with matches allowed to straddle buffer boundaries
 * and alerts attributed to rules as they fire.
 *
 * Usage: network_ids [--scale S] [--traffic BYTES] [--chunk BYTES]
 */

#include <iostream>

#include "core/stats.hh"
#include "engine/planner.hh"
#include "util/cli.hh"
#include "util/table.hh"
#include "util/timer.hh"
#include "zoo/snort.hh"

int
main(int argc, char **argv)
{
    using namespace azoo;

    Cli cli(argc, argv, {"scale", "traffic", "chunk", "seed"});
    zoo::ZooConfig cfg;
    cfg.scale = cli.getDouble("scale", 0.05);
    cfg.inputBytes = static_cast<size_t>(
        cli.getInt("traffic", 1 << 20));
    cfg.seed = static_cast<uint64_t>(cli.getInt("seed", 42));
    const size_t chunk =
        static_cast<size_t>(cli.getInt("chunk", 1500)); // ~MTU

    auto rules = zoo::makeSnortRules(cfg);
    Automaton ids = zoo::compileSnortRules(rules, false, false);
    auto traffic = zoo::snortInput(cfg, rules);

    GraphStats s = computeStats(ids);
    std::cout << "IDS loaded: " << s.subgraphs << " rules, "
              << s.states << " states\n";

    PlannedSession session(compileProgram(EngineKind::kNfa, ids));
    session.options.countByCode = true;
    session.options.reportRecordLimit = 16;

    Timer timer;
    size_t pos = 0;
    size_t buffers = 0;
    while (pos < traffic.size()) {
        const size_t len = std::min(chunk, traffic.size() - pos);
        session.feed(traffic.data() + pos, len);
        pos += len;
        ++buffers;
    }
    const double secs = timer.seconds();

    const SimResult r = session.results();
    std::cout << "processed " << buffers << " buffers ("
              << traffic.size() << " bytes) in "
              << Table::fixed(secs, 2) << "s ("
              << Table::fixed(traffic.size() / secs / 1e6, 1)
              << " MB/s)\n";
    std::cout << "alerts: " << r.reportCount << " across "
              << r.byCode.size() << " rule(s)\n";
    for (const Report &rep : r.reports) {
        std::cout << "  ALERT rule " << rep.code
                  << " at stream offset " << rep.offset << "\n";
    }
    return 0;
}
