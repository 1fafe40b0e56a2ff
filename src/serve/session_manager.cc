#include "serve/session_manager.hh"

#include "serve/ruleset.hh"
#include "util/logging.hh"

namespace azoo {
namespace serve {

MatchSessionPool::MatchSessionPool(
    std::shared_ptr<const CompiledRuleset> gen, size_t maxReportRecords)
    : gen_(std::move(gen))
{
    if (!gen_)
        panic("MatchSessionPool: null generation");
    const EngineKind engine = gen_->spec.engine;
    if (engine != EngineKind::kNfa && engine != EngineKind::kAuto)
        panic(cat("MatchSessionPool: no session cursor for engine ",
                  engineName(engine)));
    sessionBytes_ = PlannedSession::cursorBytes(
        gen_->automaton, gen_->profiles, gen_->spec.plan,
        maxReportRecords);
}

MatchSessionPool::MatchSessionPool(const Automaton &a, EngineKind engine,
                                   const PlanOptions &popts,
                                   size_t maxReportRecords)
    : MatchSessionPool(
          makeInlineRuleset(a, RulesetSpec{engine, popts, ParseLimits()}),
          maxReportRecords)
{
}

MatchSessionPool::~MatchSessionPool() = default;

uint64_t
MatchSessionPool::epoch() const
{
    return gen_->epoch;
}

std::unique_ptr<PlannedSession>
MatchSessionPool::acquire()
{
    if (!free_.empty()) {
        std::unique_ptr<PlannedSession> s = std::move(free_.back());
        free_.pop_back();
        // Fresh options for the new client; release() already reset
        // the engine state.
        s->options = SimOptions();
        return s;
    }
    // The generation compiles here, on its first session, not at
    // load: a reload publishes without paying for a compile that the
    // first OPEN after it pays once instead. kAuto plans from the
    // generation's profiles, inferred once at load.
    ++created_;
    if (!program_) {
        program_ = compileProgram(gen_->spec.engine, gen_->automaton,
                                  gen_->spec.plan, gen_->profiles);
    }
    return std::make_unique<PlannedSession>(program_);
}

void
MatchSessionPool::release(std::unique_ptr<PlannedSession> s)
{
    if (!s)
        return;
    s->reset();
    free_.push_back(std::move(s));
}

SessionManager::SessionManager(const ServeLimits &limits,
                               size_t perSessionBytes)
    : limits_(limits)
{
    setPerSessionBytes(perSessionBytes);
}

void
SessionManager::setPerSessionBytes(size_t perSessionBytes)
{
    capacity_ = limits_.maxSessions;
    if (limits_.memoryBudgetBytes > 0 && perSessionBytes > 0) {
        // Each admitted session may buffer up to the queue budget on
        // top of its engine footprint.
        const size_t per = perSessionBytes + limits_.queueBudgetBytes;
        size_t byMemory = limits_.memoryBudgetBytes / per;
        if (byMemory == 0)
            byMemory = 1; // a budget too small for one session still
                          // serves one at a time rather than nothing
        if (byMemory < capacity_)
            capacity_ = byMemory;
    }
    if (capacity_ == 0)
        capacity_ = 1;
}

AdmitDecision
SessionManager::tryAdmit(uint8_t priority, bool draining) const
{
    AdmitDecision d;
    if (draining) {
        d.reject = ReplyStatus::kRejectedDrain;
        return d;
    }
    if (sessions_.size() < capacity_) {
        d.admitted = true;
        return d;
    }
    // At capacity: shed the lowest-priority admitted session iff it is
    // strictly less important than the newcomer.
    uint64_t victim = kNoSession;
    uint8_t victimPrio = 255;
    for (const auto &[id, prio] : sessions_) {
        if (prio < victimPrio || victim == kNoSession) {
            victim = id;
            victimPrio = prio;
        }
    }
    if (victim != kNoSession && victimPrio < priority) {
        d.admitted = true;
        d.shedVictim = victim;
        return d;
    }
    d.reject = capacity_ < limits_.maxSessions
        ? ReplyStatus::kRejectedMemory
        : ReplyStatus::kRejectedBusy;
    return d;
}

void
SessionManager::admit(uint64_t id, uint8_t priority)
{
    sessions_[id] = priority;
}

void
SessionManager::retire(uint64_t id)
{
    sessions_.erase(id);
}

} // namespace serve
} // namespace azoo
