/**
 * @file
 * Fuzz harness for planner / prefilter report equivalence. The input
 * encodes a small literal-chain automaton plus a haystack: a pattern
 * count, a chunk size, then length-prefixed literals, then input
 * bytes. The harness simulates the automaton four ways — serial
 * NfaEngine, PlannedEngine with the prefilter enabled, PlannedEngine
 * with it disabled, and a chunked PlannedSession — and traps unless
 * all four produce identical canonical reports. Literal lengths span
 * 1..8 so the fuzzer drives both plannable (4 bytes or longer) and
 * interpreter-routed chains, and the chunk size spans the guard-poll
 * interval so feeds straddle poll boundaries.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

#include "core/automaton.hh"
#include "core/builder.hh"
#include "engine/nfa_engine.hh"
#include "engine/parallel_runner.hh"
#include "engine/planner.hh"

namespace {

/** Bounded byte reader over the fuzz input. */
struct Cursor {
    const uint8_t *p;
    size_t n;

    uint8_t
    take(uint8_t dflt = 0)
    {
        if (n == 0)
            return dflt;
        --n;
        return *p++;
    }
};

void
checkSame(const azoo::SimResult &want, azoo::SimResult got)
{
    azoo::canonicalizeReports(got);
    if (got.reportCount != want.reportCount ||
        got.symbols != want.symbols || got.reports != want.reports)
        __builtin_trap();
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    using namespace azoo;

    Cursor c{data, size};
    const int npats = 1 + c.take() % 4;
    const size_t chunk = 1 + (size_t(c.take()) << 4) % 1500;

    Automaton a;
    for (int i = 0; i < npats; ++i) {
        const size_t len = 1 + c.take('c') % 8;
        std::string lit;
        for (size_t j = 0; j < len; ++j)
            lit.push_back(char(c.take(uint8_t('a' + j % 26))));
        addLiteral(a, lit, StartType::kAllInput, true,
                   uint32_t(i + 1));
    }
    if (!a.check().ok())
        __builtin_trap();

    const size_t hay = std::min(c.n, size_t(16384));
    const uint8_t *in = c.p;

    SimOptions opts;
    opts.computeActiveSet = false;

    NfaEngine ref(a);
    EngineScratch scratch;
    SimResult want = ref.simulate(in, hay, scratch, opts);
    canonicalizeReports(want);

    PlannedEngine on(a);
    checkSame(want, on.simulate(in, hay, opts));

    PlanOptions noPf;
    noPf.enablePrefilter = false;
    PlannedEngine off(a, noPf);
    checkSame(want, off.simulate(in, hay, opts));

    PlannedSession sess(a);
    sess.options = opts;
    for (size_t done = 0; done < hay;) {
        const size_t step = std::min(chunk, hay - done);
        if (sess.feed(in + done, step) != step)
            __builtin_trap(); // no guard set: feeds never go short
        done += step;
    }
    checkSame(want, sess.results());
    return 0;
}
