#include "engine/streaming.hh"

#include "obs/obs.hh"

namespace azoo {

StreamingSession::StreamingSession(const Automaton &a)
    : StreamingSession(std::make_shared<const NfaEngine>(a))
{
}

StreamingSession::StreamingSession(std::shared_ptr<const NfaEngine> engine)
    : engine_(std::move(engine))
{
    engine_->begin(scratch_);
}

void
StreamingSession::reset()
{
    engine_->end(scratch_);
    result_ = SimResult();
    engine_->begin(scratch_);
}

size_t
StreamingSession::feed(const uint8_t *data, size_t len)
{
    // A fired guard stops the session for good: the partial result
    // must keep covering exactly the consumed prefix, so later chunks
    // are refused rather than silently appended.
    if (stopped())
        return 0;
    const size_t done =
        engine_->feed(scratch_, data, len, options, result_);
    if (stopped())
        obs::noteGuardStop("engine.stream", result_.guardStatus.code());
    if (obs::kEnabled && done) {
        static obs::Counter &symbols =
            obs::Registry::global().counter("engine.stream.symbols");
        symbols.add(done);
    }
    return done;
}

size_t
StreamingSession::footprintBytes() const
{
    return sizeof(*this) + scratch_.footprintBytes() +
        result_.reports.capacity() * sizeof(Report);
}

size_t
StreamingSession::cursorBytes(size_t elements, size_t maxReportRecords)
{
    return sizeof(StreamingSession) +
        EngineScratch::elementBytes(elements) +
        maxReportRecords * sizeof(Report);
}

} // namespace azoo
