/**
 * @file
 * MultiDfaEngine: a compiled CPU automata engine in the spirit of
 * Intel Hyperscan, the paper's fast CPU baseline.
 *
 * Each connected component of the benchmark automaton is determinized
 * (subset construction) into its own small DFA with per-component
 * input-symbol equivalence classes. At runtime every component costs
 * one table lookup per input symbol, independent of how many NFA
 * states are enabled -- which is precisely why AP-specific padding
 * states are nearly free on this engine (Table III) while they
 * directly slow down the enabled-set interpreter.
 *
 * Components that contain counter elements or whose determinization
 * exceeds a state budget fall back to a PlannedEngine running
 * lazydfa's fixedPlan() over them (every compiled component is kSkip
 * in its plan), mirroring how hybrid engines mix DFA and NFA subsystems:
 * counter-free over-budget components still get DFA-speed execution
 * on hot input regions (subset construction runs lazily under the
 * MultiDfaOptions::lazyCacheBytes budget), and only counter
 * components drop all the way to the enabled-set interpreter. As in
 * Hyperscan, the DFA runs only while it fits: a fallback whose cache
 * fills hands its run off to the interpreter, exactly, and stays
 * there.
 *
 * Because the fallback's transition cache warms up across simulate()
 * calls (and its hand-off is sticky), an engine with
 * fallbackComponents() > 0 must not be shared by concurrently
 * simulating threads (a fully compiled engine remains freely
 * shareable).
 */

#ifndef AZOO_ENGINE_MULTIDFA_ENGINE_HH
#define AZOO_ENGINE_MULTIDFA_ENGINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/automaton.hh"
#include "engine/planner.hh"
#include "engine/report.hh"

namespace azoo {

/** Compilation limits for MultiDfaEngine. */
struct MultiDfaOptions {
    /** Determinization budget per component; beyond it the component
     *  is simulated by the lazy-DFA fallback instead. */
    uint32_t maxDfaStatesPerComponent = 4096;
    /** Transition-cache byte budget of the lazy-DFA fallback; a run
     *  that fills it hands off to the interpreter. */
    size_t lazyCacheBytes = 8u << 20;
    /** Optional analysis facts (inferProfiles() on the same
     *  automaton). When set, components whose blowupLog2 estimate
     *  already exceeds the state budget skip the doomed eager subset
     *  construction and go straight to the fallback — a construction-
     *  time-only optimization; results are unchanged. */
    const std::vector<analysis::ComponentProfile> *profiles = nullptr;
};

/** Compiled multi-DFA engine over a borrowed automaton. */
class MultiDfaEngine
{
  public:
    explicit MultiDfaEngine(const Automaton &a,
                            const MultiDfaOptions &opts =
                                MultiDfaOptions());

    /** Run over @p input. Equals serial NfaEngine after
     *  canonicalizeReports() on every field but totalEnabled, which
     *  counts only the fallback's enabled states: element ids refer
     *  to the original automaton, reports come out in canonical
     *  order, and opts.guard is polled on NfaEngine's clock. */
    SimResult simulate(const uint8_t *input, size_t len,
                       const SimOptions &opts = SimOptions()) const;

    SimResult
    simulate(const std::vector<uint8_t> &input,
             const SimOptions &opts = SimOptions()) const
    {
        return simulate(input.data(), input.size(), opts);
    }

    /** Number of components compiled to DFAs. */
    size_t compiledComponents() const { return dfas_.size(); }

    /** Number of components running on the lazy-DFA fallback path. */
    size_t fallbackComponents() const { return fallbackComponentCount_; }

    /** Total DFA states across all compiled components. */
    uint64_t totalDfaStates() const;

  private:
    /** One report event attached to a (state, class) DFA cell. */
    struct CellReport {
        ElementId element; ///< original automaton element id
        uint32_t code;
    };

    /** One compiled component. */
    struct Dfa {
        uint32_t numStates = 0;
        uint32_t numClasses = 0;
        uint32_t start = 0;
        /** classOf[byte] -> symbol class. */
        std::array<uint8_t, 256> classOf{};
        /** next[state * numClasses + cls] -> state. */
        std::vector<uint32_t> next;
        /** reportIdx[state * numClasses + cls] -> pool index (0=none). */
        std::vector<uint32_t> reportIdx;
        /** Pool of report lists; index 0 is the empty list. */
        std::vector<std::vector<CellReport>> pool;
    };

    /** Attempt subset construction of one component.
     *  @return true on success (dfa filled in). */
    bool buildDfa(const std::vector<ElementId> &members, Dfa &dfa) const;

    /** Borrowed: the caller guarantees the automaton outlives the
     *  engine (in the serve path, via a RulesetGeneration pin). */
    const Automaton &a_;
    MultiDfaOptions opts_;
    std::vector<Dfa> dfas_;

    /** Null when every component compiled eagerly. */
    std::unique_ptr<PlannedEngine> fallbackEngine_;
    size_t fallbackComponentCount_ = 0;
};

} // namespace azoo

#endif // AZOO_ENGINE_MULTIDFA_ENGINE_HH
