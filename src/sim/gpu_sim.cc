#include "sim/gpu_sim.hh"

#include <string>

#include "common/contract.hh"
#include "common/logging.hh"
#include "common/prof.hh"
#include "mem/cache.hh"

namespace mmgpu::sim
{

namespace
{

engine::PlacementKind
placementKindFor(PlacementPolicy policy)
{
    switch (policy) {
    case PlacementPolicy::FirstTouchOwner:
        return engine::PlacementKind::FirstTouch;
    case PlacementPolicy::Striped:
        return engine::PlacementKind::Striped;
    case PlacementPolicy::Locality:
        return engine::PlacementKind::Locality;
    }
    mmgpu_panic("bad placement policy");
}

} // namespace

GpuSim::GpuSim(const GpuConfig &config) : config_(config)
{
    config_.validate();

    network_ = noc::makeNetwork(config_.topology, config_.gpmCount,
                                config_.interGpmBytesPerCycle,
                                config_.hopLatency,
                                config_.switchLatency,
                                config_.linkFaults);
    memory_ = std::make_unique<mem::MemSystem>(config_.memory,
                                               network_.get());
    for (unsigned s = 0; s < config_.totalSms(); ++s)
        sms_.emplace_back(s, s / config_.smsPerGpm,
                          config_.warpSlotsPerSm,
                          config_.issueSlotsPerCycle);
    placement_ = engine::makePlacementStrategy(
        placementKindFor(config_.placement), config_.ctaScheduling);
    memPipeline_ = std::make_unique<engine::MemPipeline>(
        config_.memory, *memory_, network_.get(), calendar_);
    warpEngine_ = std::make_unique<engine::WarpEngine>(
        config_.memory, config_.warpSlotsPerSm, sms_, calendar_,
        *memPipeline_, *placement_, config_.gpmCount);
    memPipeline_->bindWaker(*warpEngine_);

    // Reset order is registration order; the drain audits fire for
    // every entry at quiescent points (MMGPU_CONTRACTS=2).
    registry_.add(
        "calendar", [this] { calendar_.reset(); },
        [this] {
            return calendar_.empty()
                       ? std::string{}
                       : std::to_string(calendar_.pending()) +
                             " undrained events";
        });
    if (network_) {
        registry_.add(
            "network", [this] { network_->reset(); },
            [this] { return network_->auditConservation(); });
    }
    registry_.add("memory", [this] { memory_->reset(); });
    registry_.add("sm-cores", [this] {
        for (auto &core : sms_)
            core.reset();
    });
    registry_.add(*memPipeline_);
    registry_.add(*warpEngine_);
}

GpuSim::~GpuSim() = default;

void
GpuSim::attachTelemetry(telemetry::Telemetry *telemetry)
{
    telemetry_ = telemetry;
    // Handles are (re)resolved per run; drop stale ones now so a
    // detach cannot leave dangling hook pointers behind.
    clearTelemetryHooks();
}

void
GpuSim::clearTelemetryHooks()
{
    ctrEventsWarp_ = &nullCounter_;
    ctrEventsMem_ = &nullCounter_;
    smActiveTracks_.clear();
    warpEngine_->setTelemetryHooks({});
    memPipeline_->setTxnSampler(nullptr);
    memory_->detachTelemetry();
    if (network_)
        network_->detachTelemetry();
    for (auto &core : sms_)
        core.attachTelemetry(nullptr);
}

void
GpuSim::setupTelemetry()
{
    telemetry::Telemetry &tel = *telemetry_;
    tel.beginRun();
    clearTelemetryHooks();

    telemetry::CounterRegistry &reg = tel.counters();
    ctrEventsWarp_ = &reg.counter("sim/events_warp");
    ctrEventsMem_ = &reg.counter("sim/events_mem");
    engine::WarpEngine::TelemetryHooks hooks;
    hooks.blockWindow = &reg.counter("warp/block_mlp_window");
    hooks.blockDrain = &reg.counter("warp/block_drain");
    hooks.warpWakes = &reg.counter("warp/wakes");

    memory_->attachTelemetry(tel);

    telemetry::Timeline *timeline = tel.timeline();
    if (timeline == nullptr) {
        warpEngine_->setTelemetryHooks(hooks);
        return;
    }
    hooks.instr = &tel.activity("instr", isa::numOpcodes);
    hooks.txn = &tel.activity("txn", isa::numTxnLevels);
    warpEngine_->setTelemetryHooks(hooks);
    memPipeline_->setTxnSampler(hooks.txn);

    using Kind = telemetry::TimelineTrack::Kind;
    double sms_per_gpm = static_cast<double>(config_.smsPerGpm);
    for (unsigned g = 0; g < config_.gpmCount; ++g) {
        std::string prefix = "gpm" + std::to_string(g);
        telemetry::TimelineTrack &busy = timeline->track(
            prefix + "/sm_busy", Kind::Busy, sms_per_gpm);
        smActiveTracks_.push_back(&timeline->track(
            prefix + "/sm_active", Kind::Busy, sms_per_gpm));
        for (unsigned s = 0; s < config_.smsPerGpm; ++s)
            sms_[g * config_.smsPerGpm + s].attachTelemetry(&busy);
    }
    if (network_)
        network_->attachTelemetry(*timeline);
}

void
GpuSim::prePlacePages(const trace::KernelProfile &profile,
                      const trace::SegmentLayout &layout)
{
    // Homing every page up front (rather than on simulated first
    // touch) avoids simulation-order races with halo accesses; the
    // strategy decides where each page lands.
    auto lists = placement_->assign(profile.ctaCount, config_.gpmCount);
    std::vector<unsigned> cta_to_gpm(profile.ctaCount);
    for (unsigned g = 0; g < lists.size(); ++g)
        for (unsigned c : lists[g])
            cta_to_gpm[c] = g;

    engine::PageContext ctx;
    ctx.profile = &profile;
    ctx.layout = &layout;
    ctx.ctaToGpm = &cta_to_gpm;
    ctx.gpmCount = config_.gpmCount;

    std::uint64_t page_index = 0;
    for (unsigned s = 0; s < profile.segments.size(); ++s) {
        std::uint64_t base = layout.base(s);
        Bytes size = layout.size(s);
        for (std::uint64_t page = base; page < base + size;
             page += mem::PageTable::pageBytes, ++page_index) {
            unsigned home =
                placement_->homePage(ctx, s, page, page_index);
            MMGPU_EXPECT(home < config_.gpmCount,
                         "placement strategy homed a page on a"
                         " GPM the machine does not have");
            memory_->prePlace(page, home);
        }
    }
}

PerfResult
GpuSim::run(const trace::KernelProfile &profile)
{
    MMGPU_PROF_SCOPE("sim/run");
    profile.validate();
    mmgpu_assert(calendar_.empty(),
                 "stale calendar events at run() entry");

    // Zero every component back to its as-constructed state (with
    // MMGPU_CONTRACTS=2 the drain audits fire first, so a reused
    // machine cannot carry in-flight state between runs).
    {
        MMGPU_PROF_SCOPE("sim/reset");
        registry_.resetAll();
    }
    busyAccum_ = 0.0;
    stallAccum_ = 0.0;
    occupiedAccum_ = 0.0;
    endOfRun_ = 0.0;

    if (telemetry_)
        setupTelemetry();
    else
        clearTelemetryHooks();

    trace::SegmentLayout layout(profile);
    // The caches keep 32-bit line addresses: check the whole address
    // space once here rather than fail on some access mid-run.
    if (layout.end() > mem::SectoredCache::maxLineAddress *
                           isa::cacheLineBytes)
        mmgpu_fatal("profile '", profile.name, "' maps ", layout.end(),
                    " bytes, beyond the caches' 32-bit line addresses");
    {
        MMGPU_PROF_SCOPE("sim/preplace");
        prePlacePages(profile, layout);
    }

    noc::Tick start = 0.0;
    for (unsigned launch = 0; launch < profile.launches; ++launch) {
        noc::Tick end = runLaunch(profile, layout, launch, start);
        {
            MMGPU_PROF_SCOPE("sim/kernel_boundary");
            end = memory_->kernelBoundary(end,
                                          memPipeline_->counters());
        }
        endOfRun_ = end;
        start = end + static_cast<double>(config_.launchOverhead);

        // Fold per-launch SM accounting, then reset issue windows.
        for (auto &core : sms_) {
            busyAccum_ += core.busyCycles();
            stallAccum_ += core.stallCycles();
            occupiedAccum_ += core.occupiedCycles();
            if (!smActiveTracks_.empty() && core.everActive()) {
                smActiveTracks_[core.gpm()]->addSpan(
                    core.firstActiveAt(), core.lastActiveAt());
            }
            core.reset();
        }
    }
    // Launch gaps between kernels count toward wall-clock time.
    if (profile.launches > 1) {
        endOfRun_ += static_cast<double>(config_.launchOverhead) *
                     (profile.launches - 1);
    }

    // End-of-run conservation audits (MMGPU_CONTRACTS=2). The
    // calendar is drained and kernelBoundary() has flushed the
    // caches, so the machine is quiescent: every component's drain
    // audit must come back clean.
    if constexpr (contract::auditsEnabled) {
        std::string verdict = registry_.auditAll();
        MMGPU_INVARIANT(verdict.empty(), verdict);
    }

    PerfResult result;
    result.configName = config_.name;
    result.workloadName = profile.name;
    result.execCycles = endOfRun_;
    result.execSeconds = endOfRun_ / config_.clock.frequency();
    result.instrs = warpEngine_->instrs();
    result.mem = memPipeline_->counters();
    if (network_) {
        result.link = network_->traffic();
        result.linkQueueing = network_->totalQueueing();
        result.linkBusy = network_->totalBusy();
    }
    result.smBusyCycles = busyAccum_;
    result.smStallCycles = stallAccum_;
    result.smOccupiedCycles = occupiedAccum_;
    result.l1Accesses = memory_->l1Accesses();
    result.l1SectorHits = memory_->l1SectorHits();
    result.l2Accesses = memory_->l2Accesses();
    result.l2SectorHits = memory_->l2SectorHits();
    result.dramQueueing = memory_->dramQueueing();
    result.dramBusy = memory_->dramBusy();

    if (telemetry_) {
        telemetry::CounterRegistry &reg = telemetry_->counters();
        reg.gauge("sim/end_cycles").set(endOfRun_);
        reg.gauge("sim/ipc").set(result.ipc());
        reg.gauge("sim/sm_busy_cycles").set(busyAccum_);
        reg.gauge("sim/sm_stall_cycles").set(stallAccum_);
        reg.gauge("sim/sm_occupied_cycles").set(occupiedAccum_);
        if (!config_.linkFaults.empty()) {
            reg.counter("fault/link_reroutes")
                .add(result.link.rerouted);
            reg.gauge("fault/degraded_links")
                .set(static_cast<double>(
                    config_.linkFaults.faults.size()));
        }

        telemetry::RunInfo info;
        info.configName = config_.name;
        info.workloadName = profile.name;
        info.gpmCount = config_.gpmCount;
        info.clockHz = config_.clock.frequency();
        info.endCycles = endOfRun_;
        telemetry_->finalizeRun(info);
    }
    return result;
}

noc::Tick
GpuSim::runLaunch(const trace::KernelProfile &profile,
                  const trace::SegmentLayout &layout, unsigned launch,
                  noc::Tick start)
{
    calendar_.advanceTo(start);
    {
        MMGPU_PROF_SCOPE("sim/begin_launch");
        warpEngine_->beginLaunch(profile, layout, launch, start);
    }

    // The event loop is the engine's hot path, so the profiled
    // variant is a separate loop: with MMGPU_PROFILE=0 the plain
    // loop below runs with zero instrumentation (not even a branch
    // per event), which is what keeps the disabled overhead
    // unmeasurable. The profiled copy samples the clock around each
    // step and attributes it to the warp or mem engine.
    if (prof::enabled()) {
        static prof::Site warpSite("sim/step_warp");
        static prof::Site memSite("sim/step_mem");
        while (!calendar_.empty()) {
            engine::Event event = calendar_.pop();
            (event.isMem ? ctrEventsMem_ : ctrEventsWarp_)->add();
            std::int64_t t0 = wallclock::nowNs();
            if (event.isMem)
                memPipeline_->step(event.index, event.when);
            else
                warpEngine_->step(event.index, event.when);
            auto dt = static_cast<std::uint64_t>(wallclock::nowNs() -
                                                 t0);
            (event.isMem ? memSite : warpSite).addSample(dt, dt);
        }
    } else {
        while (!calendar_.empty()) {
            engine::Event event = calendar_.pop();
            (event.isMem ? ctrEventsMem_ : ctrEventsWarp_)->add();
            if (event.isMem)
                memPipeline_->step(event.index, event.when);
            else
                warpEngine_->step(event.index, event.when);
        }
    }

    warpEngine_->endLaunch();
    return calendar_.now();
}

} // namespace mmgpu::sim
