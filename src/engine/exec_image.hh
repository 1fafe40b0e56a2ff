/**
 * @file
 * The NFA execution image: the flat tables NfaEngine actually reads
 * per input symbol, separated from the engine so they can live in
 * two places — compiled on the heap from an `Automaton`, or borrowed
 * zero-copy from the `EXEC` section of an mmap-ed `.azoox` artifact
 * (docs/ARTIFACT_FORMAT.md).
 *
 * `NfaExecImage` is a pure view (spans; no ownership). `NfaExecTables`
 * owns the same arrays as vectors and is the single compiler from
 * `Automaton` to image — both `NfaEngine(const Automaton &)` and the
 * artifact writer go through `NfaExecTables::compile`, which is what
 * guarantees an artifact round-trip is bit-identical to in-memory
 * compilation: the bytes written are the bytes the engine would have
 * built.
 */

#ifndef AZOO_ENGINE_EXEC_IMAGE_HH
#define AZOO_ENGINE_EXEC_IMAGE_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/automaton.hh"

namespace azoo {

/** An STE label as four 64-bit words (CharSet's storage layout). */
using LabelWords = std::array<uint64_t, 4>;

/** Counter-mode byte values as stored in exec tables; identical to
 *  the CounterMode wire encoding. */
inline constexpr uint8_t kExecModeLatch = 0;
inline constexpr uint8_t kExecModePulse = 1;
inline constexpr uint8_t kExecModeRollover = 2;

static_assert(static_cast<uint8_t>(CounterMode::kLatch) ==
                  kExecModeLatch &&
              static_cast<uint8_t>(CounterMode::kPulse) ==
                  kExecModePulse &&
              static_cast<uint8_t>(CounterMode::kRollover) ==
                  kExecModeRollover);

/**
 * Borrowed view of compiled interpreter tables over n elements. All
 * spans point into storage the caller keeps alive (an NfaExecTables
 * or a loaded artifact). Per-element arrays have exactly n entries;
 * `edgeBegin`/`resetBegin` have n + 1; `maiBegin` has 257 (the
 * per-input-byte index of matching all-input states, in CSR form).
 */
struct NfaExecImage {
    size_t elementCount = 0;

    std::span<const uint32_t> edgeBegin;     ///< CSR offsets, n + 1
    std::span<const ElementId> edgeTarget;   ///< activation targets
    std::span<const uint32_t> resetBegin;    ///< CSR offsets, n + 1
    std::span<const ElementId> resetTarget;  ///< reset targets
    std::span<const LabelWords> label;       ///< match labels, n
    std::span<const uint8_t> reporting;      ///< 0/1 per element
    std::span<const uint8_t> isCounter;      ///< 0/1 per element
    std::span<const uint8_t> isAllInput;     ///< 0/1 per element
    std::span<const uint8_t> counterMode;    ///< kExecMode*, n
    std::span<const uint32_t> reportCode;    ///< n
    std::span<const uint32_t> counterTarget; ///< threshold, n
    std::span<const ElementId> allInput;     ///< all-input state ids
    std::span<const ElementId> startOfData;  ///< start-of-data ids
    std::span<const ElementId> counters;     ///< counter element ids
    std::span<const uint32_t> maiBegin;      ///< 257 CSR offsets
    std::span<const ElementId> maiTarget;    ///< all-input ids per byte
};

/**
 * Owned storage for an execution image. `compile()` flattens an
 * automaton exactly the way NfaEngine's constructor historically did
 * (CSR adjacency, hot-field copies, the 256-way all-input index) and
 * additionally flattens the counter settle-phase fields (target,
 * mode) so simulation never touches the Element table.
 */
struct NfaExecTables {
    size_t elementCount = 0;

    std::vector<uint32_t> edgeBegin;
    std::vector<ElementId> edgeTarget;
    std::vector<uint32_t> resetBegin;
    std::vector<ElementId> resetTarget;
    std::vector<LabelWords> label;
    std::vector<uint8_t> reporting;
    std::vector<uint8_t> isCounter;
    std::vector<uint8_t> isAllInput;
    std::vector<uint8_t> counterMode;
    std::vector<uint32_t> reportCode;
    std::vector<uint32_t> counterTarget;
    std::vector<ElementId> allInput;
    std::vector<ElementId> startOfData;
    std::vector<ElementId> counters;
    std::vector<uint32_t> maiBegin;
    std::vector<ElementId> maiTarget;

    /** Flatten @p a. panic()s on counter->counter edges (the zoo
     *  never generates them; the interpreter has no settle cascade). */
    static NfaExecTables compile(const Automaton &a);

    /** A view over this storage (valid while *this is alive and
     *  unmodified). */
    NfaExecImage view() const;

    /** Resident bytes of the owned arrays (capacities, not sizes —
     *  the admission footprint cares what the allocator holds). */
    size_t footprintBytes() const;
};

} // namespace azoo

#endif // AZOO_ENGINE_EXEC_IMAGE_HH
