#include "engine/exec_image.hh"

#include "util/logging.hh"

namespace azoo {

NfaExecTables
NfaExecTables::compile(const Automaton &a)
{
    NfaExecTables t;
    const size_t n = a.size();
    t.elementCount = n;
    t.edgeBegin.assign(n + 1, 0);
    t.resetBegin.assign(n + 1, 0);
    for (ElementId i = 0; i < n; ++i) {
        t.edgeBegin[i + 1] = t.edgeBegin[i] +
            static_cast<uint32_t>(a.element(i).out.size());
        t.resetBegin[i + 1] = t.resetBegin[i] +
            static_cast<uint32_t>(a.element(i).resetOut.size());
    }
    t.edgeTarget.reserve(t.edgeBegin[n]);
    t.resetTarget.reserve(t.resetBegin[n]);
    t.label.resize(n);
    t.reporting.assign(n, 0);
    t.isCounter.assign(n, 0);
    t.isAllInput.assign(n, 0);
    t.counterMode.assign(n, kExecModeLatch);
    t.reportCode.assign(n, 0);
    t.counterTarget.assign(n, 0);

    // The per-input-byte all-input index, built per byte value first
    // and flattened to CSR below.
    std::array<std::vector<ElementId>, 256> mai;

    for (ElementId i = 0; i < n; ++i) {
        const Element &e = a.element(i);
        for (auto tgt : e.out)
            t.edgeTarget.push_back(tgt);
        for (auto tgt : e.resetOut)
            t.resetTarget.push_back(tgt);
        for (int w = 0; w < 4; ++w)
            t.label[i][w] = e.symbols.word(w);
        t.reporting[i] = e.reporting;
        t.reportCode[i] = e.reportCode;
        if (e.kind == ElementKind::kCounter) {
            t.isCounter[i] = 1;
            t.counterTarget[i] = e.target;
            t.counterMode[i] = static_cast<uint8_t>(e.mode);
            t.counters.push_back(i);
            // Counter cascades would need multi-phase settling; the
            // zoo never generates them, so reject early.
            for (auto tgt : e.out) {
                if (a.element(tgt).kind == ElementKind::kCounter)
                    panic("NfaExecTables: counter->counter edges are "
                          "not supported");
            }
        } else if (e.start == StartType::kAllInput) {
            t.allInput.push_back(i);
            t.isAllInput[i] = 1;
            for (int v = 0; v < 256; ++v) {
                if (e.symbols.test(static_cast<uint8_t>(v)))
                    mai[v].push_back(i);
            }
        } else if (e.start == StartType::kStartOfData) {
            t.startOfData.push_back(i);
        }
    }

    t.maiBegin.assign(257, 0);
    for (int v = 0; v < 256; ++v)
        t.maiBegin[v + 1] = t.maiBegin[v] +
            static_cast<uint32_t>(mai[v].size());
    t.maiTarget.reserve(t.maiBegin[256]);
    for (int v = 0; v < 256; ++v)
        t.maiTarget.insert(t.maiTarget.end(), mai[v].begin(),
                           mai[v].end());
    return t;
}

NfaExecImage
NfaExecTables::view() const
{
    NfaExecImage v;
    v.elementCount = elementCount;
    v.edgeBegin = edgeBegin;
    v.edgeTarget = edgeTarget;
    v.resetBegin = resetBegin;
    v.resetTarget = resetTarget;
    v.label = label;
    v.reporting = reporting;
    v.isCounter = isCounter;
    v.isAllInput = isAllInput;
    v.counterMode = counterMode;
    v.reportCode = reportCode;
    v.counterTarget = counterTarget;
    v.allInput = allInput;
    v.startOfData = startOfData;
    v.counters = counters;
    v.maiBegin = maiBegin;
    v.maiTarget = maiTarget;
    return v;
}

size_t
NfaExecTables::footprintBytes() const
{
    return (edgeBegin.capacity() + resetBegin.capacity() +
            reportCode.capacity() + counterTarget.capacity() +
            maiBegin.capacity()) * sizeof(uint32_t) +
        (edgeTarget.capacity() + resetTarget.capacity() +
         allInput.capacity() + startOfData.capacity() +
         counters.capacity() + maiTarget.capacity()) *
        sizeof(ElementId) +
        label.capacity() * sizeof(LabelWords) + reporting.capacity() +
        isCounter.capacity() + isAllInput.capacity() +
        counterMode.capacity();
}

} // namespace azoo
