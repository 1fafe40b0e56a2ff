/**
 * @file
 * Fuzz harness for planner / prefilter report equivalence. The input
 * encodes a small literal-chain automaton plus a haystack: a pattern
 * count, a chunk size, a symbol budget, then length-prefixed
 * literals, then input bytes. The harness simulates the automaton
 * four ways — serial NfaEngine, PlannedEngine with the prefilter
 * enabled, PlannedEngine with it disabled, and a chunked
 * PlannedSession — each under its own RunGuard with the same budget
 * (byte * 64 symbols; 0 = no guard), and traps unless all four
 * consume the same symbols, stop with the same guard code and
 * produce identical canonical reports. Literal lengths span 1..8 so
 * the fuzzer drives both plannable (4 bytes or longer) and
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
#include "engine/run_guard.hh"

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
        got.symbols != want.symbols || got.reports != want.reports ||
        got.guardStatus.code() != want.guardStatus.code())
        __builtin_trap();
}

/** @p opts with a fresh RunGuard of @p budget symbols (none at 0). */
azoo::SimOptions
guarded(azoo::SimOptions opts, azoo::RunGuard &guard, uint64_t budget)
{
    if (budget) {
        guard.setSymbolBudget(budget);
        opts.guard = &guard;
    }
    return opts;
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    using namespace azoo;

    Cursor c{data, size};
    const int npats = 1 + c.take() % 4;
    const size_t chunk = 1 + (size_t(c.take()) << 4) % 1500;
    const uint64_t budget = uint64_t(c.take()) << 6;

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

    RunGuard guards[4];
    NfaEngine ref(a);
    EngineScratch scratch;
    SimResult want =
        ref.simulate(in, hay, scratch, guarded(opts, guards[0], budget));
    canonicalizeReports(want);

    PlannedEngine on(a);
    checkSame(want, on.simulate(in, hay, guarded(opts, guards[1], budget)));

    PlanOptions noPf;
    noPf.enablePrefilter = false;
    PlannedEngine off(a, noPf);
    checkSame(want,
              off.simulate(in, hay, guarded(opts, guards[2], budget)));

    PlannedSession sess(a);
    sess.options = guarded(opts, guards[3], budget);
    for (size_t done = 0; done < hay;) {
        const size_t step = std::min(chunk, hay - done);
        const size_t took = sess.feed(in + done, step);
        if (took != step && !sess.stopped())
            __builtin_trap(); // only a guard stop cuts a feed short
        if (sess.stopped())
            break;
        done += step;
    }
    checkSame(want, sess.results());
    return 0;
}
