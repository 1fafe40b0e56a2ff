/**
 * @file
 * Frequent-itemset mining example: the Sequence Matching benchmark's
 * counter variant as a working miner.
 *
 * Builds support-counting filters (item chains with skip slots
 * feeding AP-style latch counters), streams a transaction database
 * through the interpreter, and prints the frequent itemsets -- then
 * cross-checks every support against the native subset-counting
 * algorithm, demonstrating the full-kernel property (Section VIII
 * methodology) on this domain.
 *
 * Usage: pattern_mining [--filters N] [--stream BYTES]
 *                       [--threshold T] [--seed X]
 */

#include <iostream>

#include "engine/nfa_engine.hh"
#include "util/cli.hh"
#include "util/table.hh"
#include "zoo/seqmatch.hh"

int
main(int argc, char **argv)
{
    using namespace azoo;

    Cli cli(argc, argv, {"filters", "stream", "threshold", "seed"});
    zoo::ZooConfig cfg;
    cfg.scale = cli.getInt("filters", 40) / 1719.0;
    cfg.inputBytes = static_cast<size_t>(
        cli.getInt("stream", 1 << 20));
    cfg.seed = static_cast<uint64_t>(cli.getInt("seed", 42));

    zoo::SeqMatchParams p;
    p.withCounters = true;
    p.supportThreshold = static_cast<uint32_t>(
        cli.getInt("threshold", 8));

    zoo::Benchmark b = zoo::makeSeqMatchBenchmark(cfg, p);
    auto itemsets = zoo::seqMatchItemsets(cfg, p);
    std::cout << "mining " << itemsets.size() << " candidate itemsets"
              << " (support threshold " << p.supportThreshold
              << ") over " << b.input.size() << " bytes of "
              << "transactions\n\n";

    NfaEngine engine(b.automaton);
    SimOptions opts;
    opts.recordReports = false;
    opts.countByCode = true;
    auto r = engine.simulate(b.input, opts);

    // Native cross-check: every counter that fired must have native
    // support >= threshold, every one that did not must be below.
    auto native = zoo::nativeSupportCounts(itemsets, b.input);

    Table t({"Itemset", "Native support", "Frequent (automata)"});
    size_t frequent = 0, agree = 0;
    for (size_t f = 0; f < itemsets.size(); ++f) {
        const bool fired =
            r.byCode.count(static_cast<uint32_t>(f)) > 0;
        const bool should = native[f] >= p.supportThreshold;
        agree += fired == should;
        if (!fired)
            continue;
        ++frequent;
        std::string items;
        for (auto it : itemsets[f]) {
            if (!items.empty())
                items += ',';
            items += std::to_string(static_cast<int>(it));
        }
        t.addRow({"{" + items + "}", std::to_string(native[f]),
                  "yes"});
    }
    t.print(std::cout);
    std::cout << "\n" << frequent << " frequent itemsets; automata "
              << "and native agree on " << agree << "/"
              << itemsets.size() << " candidates\n";
    return agree == itemsets.size() ? 0 : 1;
}
