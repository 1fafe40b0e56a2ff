/**
 * @file
 * Ruleset generations: the ownership layer that makes atomic hot
 * reload possible.
 *
 * The engine stack borrows (`const Automaton &` everywhere:
 * PlannedSession, the pool). Borrowing is the right
 * call inside one run, but a daemon that swaps rulesets under live
 * traffic needs an owner whose lifetime is decided by the *last*
 * borrower, not the first. That owner is a CompiledRuleset: one
 * immutable bundle of everything a generation of sessions needs —
 * the automaton, its inferred component profiles, the engine/plan
 * configuration it was compiled against, and its observability
 * identity (epoch + source path). A RulesetGeneration is a
 * `shared_ptr<const CompiledRuleset>`: sessions pin it (indirectly,
 * through their generation's MatchSessionPool) at OPEN and release it
 * at retire, so a retired generation is destroyed exactly when its
 * pin count drains — never under a session still feeding.
 *
 * RulesetRegistry is the publication point. publish() swaps the
 * current generation under a mutex; the serve loop calls it between
 * poll rounds, so no admission can interleave with a swap — every
 * OPEN observes entirely the old or entirely the new generation (the
 * ADMIT frame echoes which, as the epoch). The registry keeps weak
 * references to every generation it ever published, so tests and the
 * serve.reload.generations_live gauge can observe retired
 * generations actually dying (the no-pin-leak contract).
 *
 * Loading is deliberately off to the side of the serve loop:
 * loadRulesetFile() does file I/O, parsing/materialization, and
 * verification, and is called from a worker thread. Verification
 * follows the analysis::postVerify() producer contract but uses the
 * non-fatal analysis::verify() entry: a daemon must reject a bad
 * reload with a status, not panic on it.
 */

#ifndef AZOO_SERVE_RULESET_HH
#define AZOO_SERVE_RULESET_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/profile.hh"
#include "core/automaton.hh"
#include "engine/planner.hh"
#include "serve/session_manager.hh"
#include "util/status.hh"

namespace azoo {
namespace serve {

/** How a ruleset is compiled for serving (fixed per server
 *  instance; reloads swap the automaton, not the configuration). */
struct RulesetSpec {
    ServeEngine engine = ServeEngine::kNfa;
    PlanOptions plan;
    /** Bounds applied when the source is a text format (.azoox
     *  artifacts were bounded at compile time). */
    ParseLimits limits;
};

/**
 * One immutable generation of the served ruleset. Never mutated after
 * construction; shared by every session opened under it.
 */
struct CompiledRuleset {
    /** Monotonic publication number (1 = the startup ruleset). */
    uint64_t epoch = 0;
    /** Where it came from: a file path, or "<inline>". */
    std::string source;
    RulesetSpec spec;
    Automaton automaton;
    /** Component profiles (kPlanned only; empty for kNfa). */
    std::vector<analysis::ComponentProfile> profiles;
};

/** Shared handle: alive while anything still executes against it. */
using RulesetGeneration = std::shared_ptr<const CompiledRuleset>;

/**
 * Verify + wrap an automaton as a generation. Rejects (kInvalidArgument)
 * when analysis::verify() finds error-severity diagnostics — a bad
 * generation is never published. Infers profiles for kPlanned unless
 * @p profiles already carries them (e.g. from an artifact's PROF
 * section).
 */
Expected<RulesetGeneration>
compileRuleset(Automaton a, const RulesetSpec &spec, uint64_t epoch,
               std::string source,
               std::vector<analysis::ComponentProfile> profiles = {});

/**
 * Load a generation from @p path: `.azoox` via the artifact loader
 * (reusing a PROF section when present), `.mnrl` / `.anml` / anything
 * else via the azml text parsers. File I/O + verification + profile
 * inference happen here — call it off the serve loop.
 */
Expected<RulesetGeneration> loadRulesetFile(const std::string &path,
                                            const RulesetSpec &spec,
                                            uint64_t epoch);

/** Non-verifying variant for trusted in-process automata (tests,
 *  the Server(const Automaton &) compatibility path). */
RulesetGeneration makeInlineRuleset(Automaton a, const RulesetSpec &spec,
                                    uint64_t epoch = 1,
                                    std::string source = "<inline>");

/**
 * Epoch-ordered publication point for generations. Thread-safe: the
 * serve loop publishes, workers and tests read. Publication is just a
 * shared_ptr swap — retirement of the old generation is wherever its
 * last pin drops, which is why liveGenerations() is observable at
 * all.
 */
class RulesetRegistry
{
  public:
    explicit RulesetRegistry(RulesetGeneration initial = nullptr);

    /** The generation new admissions should get. */
    RulesetGeneration current() const;

    /** Epoch of current() (0 when empty). */
    uint64_t epoch() const;

    /** Make @p gen current. @p gen->epoch must exceed the current
     *  epoch (publication order is the epoch order). */
    void publish(RulesetGeneration gen);

    /** Published generations still alive somewhere (current plus
     *  retired-but-pinned ones). Prunes dead weak references. */
    size_t liveGenerations() const;

  private:
    mutable std::mutex mutex_;
    RulesetGeneration current_;
    /** Every generation ever published, weakly: expiry is the
     *  "retired generation actually destroyed" signal. */
    mutable std::vector<std::weak_ptr<const CompiledRuleset>> all_;
};

} // namespace serve
} // namespace azoo

#endif // AZOO_SERVE_RULESET_HH
