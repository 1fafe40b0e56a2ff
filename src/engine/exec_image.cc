#include "engine/exec_image.hh"

#include <unordered_set>

#include "util/logging.hh"

namespace azoo {

SymbolClasses
symbolClasses(std::span<const LabelWords> labels)
{
    // Each distinct label splits every class by membership; class ids
    // are reassigned in first-byte order after every split.
    struct LabelHash {
        size_t
        operator()(const LabelWords &l) const
        {
            uint64_t h = 0;
            for (uint64_t w : l)
                h = (h ^ w) * 0x9E3779B97F4A7C15ULL;
            return static_cast<size_t>(h ^ (h >> 29));
        }
    };
    const std::unordered_set<LabelWords, LabelHash> distinct(
        labels.begin(), labels.end());
    SymbolClasses sc;
    uint32_t count = 1;
    for (const LabelWords &l : distinct) {
        if (count == 256)
            break;
        std::array<int16_t, 512> split;
        split.fill(-1);
        count = 0;
        for (int b = 0; b < 256; ++b) {
            const bool in = (l[b >> 6] >> (b & 63)) & 1;
            int16_t &id = split[sc.classOf[b] * 2 + in];
            if (id < 0)
                id = static_cast<int16_t>(count++);
            sc.classOf[b] = static_cast<uint8_t>(id);
        }
    }
    sc.rep.assign(count, 0);
    for (int b = 255; b >= 0; --b)
        sc.rep[sc.classOf[b]] = static_cast<uint8_t>(b);
    return sc;
}

NfaExecTables
NfaExecTables::compile(const Automaton &a,
                       std::span<const ElementId> members)
{
    NfaExecTables t;
    const size_t n = members.empty() ? a.size() : members.size();
    std::vector<ElementId> toLocal;
    if (!members.empty()) {
        toLocal.assign(a.size(), kNoElement);
        for (size_t i = 0; i < n; ++i)
            toLocal[members[i]] = static_cast<ElementId>(i);
    }
    auto element = [&](ElementId i) -> const Element & {
        return a.element(members.empty() ? i : members[i]);
    };
    auto local = [&](ElementId tgt) {
        if (members.empty())
            return tgt;
        if (toLocal[tgt] == kNoElement)
            panic("NfaExecTables: edge leaves the member set");
        return toLocal[tgt];
    };
    t.elementCount = n;
    t.edgeBegin.assign(n + 1, 0);
    t.resetBegin.assign(n + 1, 0);
    for (ElementId i = 0; i < n; ++i) {
        t.edgeBegin[i + 1] = t.edgeBegin[i] +
            static_cast<uint32_t>(element(i).out.size());
        t.resetBegin[i + 1] = t.resetBegin[i] +
            static_cast<uint32_t>(element(i).resetOut.size());
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
        const Element &e = element(i);
        for (auto tgt : e.out)
            t.edgeTarget.push_back(local(tgt));
        for (auto tgt : e.resetOut)
            t.resetTarget.push_back(local(tgt));
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
