#include "serve/ruleset.hh"

#include "analysis/analysis.hh"
#include "artifact/artifact.hh"
#include "core/anml.hh"
#include "core/mnrl.hh"
#include "core/serialize.hh"
#include "util/logging.hh"

namespace azoo {
namespace serve {

namespace {

bool
endsWith(const std::string &s, const char *suffix)
{
    const size_t n = std::char_traits<char>::length(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/** The generation; kAuto infers profiles unless @p profiles has them. */
RulesetGeneration
wrap(Automaton a, const RulesetSpec &spec, uint64_t epoch,
     std::string source, std::vector<analysis::ComponentProfile> profiles)
{
    if (spec.engine == EngineKind::kAuto && profiles.empty())
        profiles = analysis::inferProfiles(a, spec.plan.infer);
    auto cr = std::make_shared<CompiledRuleset>();
    cr->epoch = epoch;
    cr->source = std::move(source);
    cr->spec = spec;
    cr->automaton = std::move(a);
    cr->profiles = std::move(profiles);
    return cr;
}

} // namespace

Expected<RulesetGeneration>
compileRuleset(Automaton a, const RulesetSpec &spec, uint64_t epoch,
               std::string source,
               std::vector<analysis::ComponentProfile> profiles)
{
    if (spec.engine != EngineKind::kNfa &&
        spec.engine != EngineKind::kAuto)
        return Status(ErrorCode::kInvalidArgument,
                      cat("ruleset ", source, ": serving runs nfa|auto, "
                          "not ", engineName(spec.engine)));
    // The postVerify() producer contract, minus the debug panic: a
    // daemon rejecting a hot reload must return a status, never die
    // on attacker-reachable input.
    const analysis::Report rep = analysis::verify(a);
    if (!rep.clean())
        return Status(ErrorCode::kInvalidArgument,
                      cat("ruleset ", source,
                          " failed verification: ", rep.summary()));
    return wrap(std::move(a), spec, epoch, std::move(source),
                std::move(profiles));
}

Expected<RulesetGeneration>
loadRulesetFile(const std::string &path, const RulesetSpec &spec,
                uint64_t epoch)
{
    Automaton a;
    std::vector<analysis::ComponentProfile> profiles;
    if (endsWith(path, ".azoox")) {
        Expected<artifact::LoadedArtifact> la =
            artifact::loadArtifact(path);
        if (!la.ok())
            return la.status();
        Expected<Automaton> m = la->materialize(spec.limits);
        if (!m.ok())
            return m.status();
        a = std::move(*std::move(m));
        // A PROF section is inference already paid for at compile
        // time; reuse it instead of re-profiling on every reload.
        if (spec.engine == EngineKind::kAuto && la->hasProfiles())
            profiles = la->componentProfiles();
    } else {
        // Same extension dispatch as the tools' load-any helper
        // (tools/tool_common.hh), reimplemented here because that
        // header is tool-only.
        Expected<Automaton> m = endsWith(path, ".mnrl")
            ? loadMnrl(path, spec.limits)
            : endsWith(path, ".anml") ? loadAnml(path, spec.limits)
                                      : loadAzml(path, spec.limits);
        if (!m.ok())
            return m.status();
        a = std::move(*std::move(m));
    }
    return compileRuleset(std::move(a), spec, epoch, path,
                          std::move(profiles));
}

RulesetGeneration
makeInlineRuleset(Automaton a, const RulesetSpec &spec, uint64_t epoch,
                  std::string source)
{
    return wrap(std::move(a), spec, epoch, std::move(source), {});
}

RulesetRegistry::RulesetRegistry(RulesetGeneration initial)
{
    if (initial)
        publish(std::move(initial));
}

RulesetGeneration
RulesetRegistry::current() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return current_;
}

uint64_t
RulesetRegistry::epoch() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return current_ ? current_->epoch : 0;
}

void
RulesetRegistry::publish(RulesetGeneration gen)
{
    if (!gen)
        panic("RulesetRegistry: publish(nullptr)");
    std::lock_guard<std::mutex> lock(mutex_);
    if (current_ && gen->epoch <= current_->epoch)
        panic(cat("RulesetRegistry: epoch ", gen->epoch,
                  " does not advance ", current_->epoch));
    all_.push_back(gen);
    current_ = std::move(gen);
}

size_t
RulesetRegistry::liveGenerations() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t live = 0;
    for (size_t i = 0; i < all_.size();) {
        if (all_[i].expired()) {
            all_.erase(all_.begin() + static_cast<ptrdiff_t>(i));
        } else {
            ++live;
            ++i;
        }
    }
    return live;
}

} // namespace serve
} // namespace azoo
