/**
 * @file
 * On-the-fly, deterministic warp trace generation.
 *
 * A WarpTrace turns a KernelProfile into the concrete TraceOp stream
 * of one warp. The stream for (profile, launch, cta, warp) depends
 * only on those identifiers — never on simulation interleaving — so
 * every GPM-count/bandwidth/topology configuration of an experiment
 * replays the *same* application, which is what makes the scaling
 * comparisons meaningful.
 *
 * Generation is split by what varies. A WarpTrace::Plan holds the
 * warp-independent part of one launch — the per-iteration schedule,
 * the compute block, each access's segment geometry and pattern
 * knobs, the launch's random stream — and is built once per launch
 * and shared read-only by every warp. A warp's own state is a fixed-
 * size WarpTrace::State (random stream, iteration, schedule cursor,
 * drain/finish flags) plus one WarpTrace::Cursor per access (its
 * slice base, stream position and halo bases) in caller-provided
 * storage. The warp engine keeps the state inline in its warp slots
 * and the cursors in one flat array, so a simulated warp owns no heap
 * block of its own; a standalone WarpTrace owns a plan, a state and
 * its cursors and drives them through the same Plan code.
 */

#ifndef MMGPU_TRACE_WARP_TRACE_HH
#define MMGPU_TRACE_WARP_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "isa/instruction.hh"
#include "trace/kernel_profile.hh"

namespace mmgpu::trace
{

/**
 * Byte layout of a profile's segments in the simulated global address
 * space. Segments are laid out contiguously, each aligned to a page,
 * starting at a non-zero base so that address 0 stays invalid.
 */
class SegmentLayout
{
  public:
    /** Page size used for alignment and first-touch placement. */
    static constexpr Bytes pageBytes = 4096;

    /** Compute the layout for @p profile. */
    explicit SegmentLayout(const KernelProfile &profile);

    /** Base byte address of segment @p index. */
    std::uint64_t base(unsigned index) const;

    /** Size of segment @p index in bytes (page aligned up). */
    Bytes size(unsigned index) const;

    /** One past the highest mapped address. */
    std::uint64_t end() const { return end_; }

  private:
    std::vector<std::uint64_t> bases;
    std::vector<Bytes> sizes;
    std::uint64_t end_ = 0;
};

/**
 * The CTA that owns the chunk containing @p addr of segment @p seg
 * under the CTA-partitioned layout WarpTrace uses. Owner-CTA page
 * placement (= idealized first touch) and locality tests build on
 * this.
 */
unsigned chunkOwnerCta(const KernelProfile &profile,
                       const SegmentLayout &layout, unsigned seg,
                       std::uint64_t addr);

/** Generates the TraceOp stream of a single warp. */
class WarpTrace
{
  public:
    /** The fixed-size per-warp part of generation. */
    struct State
    {
        Rng rng;
        std::uint32_t iteration = 0;
        std::uint32_t cursor = 0; //!< slot of the schedule up next
        bool drained = false;     //!< final drain Sync produced
        bool finished = false;    //!< Exit produced
    };

    /** Per-warp streaming state of one SegmentAccess. */
    struct Cursor
    {
        std::uint64_t ctaBase = 0;      //!< the warp's slice base
        std::uint64_t position = 0;     //!< stream offset
        std::uint64_t haloUpBase = 0;   //!< +stride chunk base
        std::uint64_t haloDownBase = 0; //!< -stride chunk base
    };

    /** The warp-independent part of one launch's traces. */
    class Plan
    {
      public:
        /**
         * @param profile Kernel description (copied from; need not
         *        outlive the plan).
         * @param layout Segment layout of @p profile.
         * @param launch Kernel launch index (affects nothing but the
         *        random streams of Random/Chase patterns, so
         *        iterative apps re-touch the same pages).
         */
        Plan(const KernelProfile &profile, const SegmentLayout &layout,
             unsigned launch);

        /** Cursors one warp of this plan needs (loads + stores). */
        std::size_t accessCount() const { return accesses_.size(); }

        /**
         * Bind @p state and @p cursors (accessCount() of them) to warp
         * @p warp of thread block @p cta, exactly as a freshly built
         * WarpTrace of that identity.
         */
        void start(State &state, Cursor *cursors, unsigned cta,
                   unsigned warp) const;

        /**
         * Produce the next trace operation of the warp whose state is
         * @p state / @p cursors.
         * @return the op; TraceOpKind::Exit once the warp is finished
         *         (and forever after).
         *
         * Inline: the bookkeeping half (finish/drain checks, cursor
         * walk) folds into the warp engine's step loop; only address
         * generation stays out of line.
         */
        isa::TraceOp
        next(State &state, Cursor *cursors) const
        {
            if (state.finished)
                return isa::TraceOp::exit();
            if (state.iteration >= iterations_) {
                if (!state.drained) {
                    // Wait for all in-flight loads before retiring.
                    state.drained = true;
                    return isa::TraceOp::sync();
                }
                state.finished = true;
                return isa::TraceOp::exit();
            }
            const Slot slot = schedule_[state.cursor];
            if (++state.cursor >= schedule_.size()) {
                state.cursor = 0;
                ++state.iteration;
            }
            switch (slot.kind) {
              case SlotKind::ComputeBlock:
                return blockOp_;
              case SlotKind::SharedLoad:
                return isa::TraceOp::loadShared();
              default:
                return makeAccess(accesses_[slot.access],
                                  cursors[slot.access], state.rng,
                                  slot.kind == SlotKind::GlobalStore);
            }
        }

        /**
         * True when the next op of @p state is a global load. The warp
         * engine parks a warp whose load window is full *before*
         * generating that load: generation depends on nothing but
         * the warp's own state, so the same op comes out on wake-up.
         */
        bool
        nextIsGlobalLoad(const State &state) const
        {
            return state.iteration < iterations_ &&
                   schedule_[state.cursor].kind == SlotKind::GlobalLoad;
        }

      private:
        /** Kind of one slot of the per-iteration schedule. */
        enum class SlotKind : std::uint8_t
        {
            ComputeBlock,
            SharedLoad,
            GlobalLoad,
            GlobalStore,
        };

        /** One slot of the per-iteration schedule. */
        struct Slot
        {
            SlotKind kind;
            std::uint32_t access; //!< index into accesses_ (global)
        };

        /** Geometry and knobs of one SegmentAccess. */
        struct Access
        {
            std::uint64_t segBase; //!< whole-segment base
            Bytes segSize;         //!< whole-segment size
            Bytes chunk;           //!< CTA chunk, line aligned
            Bytes slice;           //!< warp slice of a chunk
            double irregular;
            double divergence;
            double haloFraction;
            unsigned haloStride; //!< >= 1
            AccessPattern pattern;
        };

        isa::TraceOp makeAccess(const Access &access, Cursor &cursor,
                                Rng &rng, bool is_store) const;

        std::vector<Slot> schedule_;
        std::vector<Access> accesses_; //!< loads, then stores
        isa::TraceOp blockOp_; //!< the shared per-iteration block
        Rng launchRng_;        //!< the launch's fork of the seed
        unsigned iterations_;
        unsigned ctaCount_;
        unsigned warpsPerCta_;
    };

    /**
     * @param profile Kernel description.
     * @param layout Segment layout of @p profile.
     * @param launch Kernel launch index.
     * @param cta Thread block id within the launch.
     * @param warp Warp id within the block.
     */
    WarpTrace(const KernelProfile &profile, const SegmentLayout &layout,
              unsigned launch, unsigned cta, unsigned warp);

    /** Produce the next trace operation (see Plan::next()). */
    isa::TraceOp next() { return plan_.next(state_, cursors_.data()); }

    /** @return true once Exit has been produced. */
    bool finished() const { return state_.finished; }

  private:
    Plan plan_;
    State state_;
    std::vector<Cursor> cursors_;
};

} // namespace mmgpu::trace

#endif // MMGPU_TRACE_WARP_TRACE_HH
