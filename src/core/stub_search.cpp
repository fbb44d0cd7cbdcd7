/**
 * @file
 * Steps 1-3 of communication scheduling: candidate stub enumeration
 * and the bounded backtracking permutation search of Section 4.4, plus
 * the step-4 retargeting entry points.
 *
 * The search satisfies the paper's two sufficiency requirements: a
 * lone communication always finds a stub (candidates are never empty
 * on a copy-connected machine), and the search is repeatable (it is
 * deterministic, and previous assignments are restored verbatim on
 * failure). Closing communications are ordered before open ones,
 * smallest copy range first. The read and write searches are one
 * chronological DFS (permuteStubs) instantiated per side: ReadSide and
 * WriteSide supply the participants, candidates and the prune, probe,
 * acquire and release steps.
 *
 * Everything here runs inside the placement loop, so it works out of
 * pooled scratch buffers (no allocation per probe) and cuts DFS
 * branches with O(1) bus-occupancy checks before paying for a full
 * reservation probe. Every cut is a pure subset of what the probe
 * would reject, and the search budget is charged at exactly the same
 * points as before, so the chosen permutations — and therefore the
 * final schedules — are unchanged (tests/test_sched_equivalence.cpp
 * holds the listings byte-identical).
 */

#include <algorithm>
#include <climits>

#include "core/comm_scheduler.hpp"
#include "support/fnv.hpp"
#include "support/logging.hpp"
#include "support/trace.hpp"

namespace cs {

namespace {

/**
 * Packed ordering key: closing communications first (bit 32 clear),
 * tightest copy range first (range sign-flipped into the low 32 bits
 * so signed order becomes unsigned order). Ties broken by id, making
 * keys unique — a plain sort over (key, id) reproduces what a stable
 * sort over (closing, range) produced, with the key computed once per
 * communication instead of once per comparison.
 */
std::uint64_t
packCommOrderKey(bool open, int copyRange)
{
    return (static_cast<std::uint64_t>(open) << 32) |
           (static_cast<std::uint32_t>(copyRange) ^ 0x80000000u);
}

/** Ids hash with +1 so "absent" (0) never collides with index 0. */
std::uint64_t
presenceOf(std::uint32_t index, bool valid)
{
    return valid ? static_cast<std::uint64_t>(index) + 1 : 0;
}

void
hashReadStub(FnvHasher &h, const std::optional<ReadStub> &stub)
{
    if (!stub) {
        h.u64(0);
        return;
    }
    h.u64(stub->readPort.index() + 1);
    h.u64(stub->bus.index());
    h.u64(stub->input.index());
}

void
hashWriteStub(FnvHasher &h, const std::optional<WriteStub> &stub)
{
    if (!stub) {
        h.u64(0);
        return;
    }
    h.u64(stub->writePort.index() + 1);
    h.u64(stub->bus.index());
    h.u64(stub->output.index());
}

} // namespace

std::uint64_t
BlockScheduler::readSearchSignature(const std::vector<CommId> &ids,
                                    int cycle, CommId constrain,
                                    RegFileId wantRf) const
{
    FnvHasher h;
    h.u64(0x52); // direction tag: 'R'
    h.u64(presenceOf(constrain.index(), constrain.valid()));
    h.u64(presenceOf(wantRf.index(), wantRf.valid()));
    h.i32(options_.permutationBudget);
    for (CommId id : ids) {
        const Communication &comm = comms_.get(id);
        h.u64(id.index());
        h.u64(comm.value.index());
        h.u64(comm.reader.index());
        h.i32(comm.slot);
        h.i32(comm.distance * ii_);
        hashReadStub(h, comm.readStub);
        const Placement &rp = schedule_.placement(comm.reader);
        h.u64(rp.fu.index());
        h.i32(issueCycleOf(comm.reader));
        h.boolean(kernel_.operation(comm.reader).isCopy());
        h.boolean(comm.isLiveIn());
        bool writer_scheduled =
            comm.writer.valid() && isScheduled(comm.writer);
        h.boolean(writer_scheduled);
        if (writer_scheduled) {
            h.u64(schedule_.placement(comm.writer).fu.index());
            h.i32(issueCycleOf(comm.writer));
            h.i32(latencyOf(comm.writer));
            hashWriteStub(h, comm.writeStub);
        }
    }
    h.u64(reservations_.stubStateHash(cycle, hot_.nogoodInvalidations));
    return h.state;
}

std::uint64_t
BlockScheduler::writeSearchSignature(const std::vector<CommId> &ids,
                                     int cycle, CommId constrain,
                                     RegFileId wantRf) const
{
    FnvHasher h;
    h.u64(0x57); // direction tag: 'W'
    h.u64(presenceOf(constrain.index(), constrain.valid()));
    h.u64(presenceOf(wantRf.index(), wantRf.valid()));
    h.i32(options_.permutationBudget);
    for (CommId id : ids) {
        const Communication &comm = comms_.get(id);
        h.u64(id.index());
        h.u64(comm.value.index());
        h.u64(comm.writer.index());
        h.u64(schedule_.placement(comm.writer).fu.index());
        h.i32(writeStubCycleOf(comm.writer));
        hashWriteStub(h, comm.writeStub);
        h.u64(comm.reader.index());
        h.i32(comm.slot);
        h.i32(comm.distance * ii_);
        const Operation &consumer = kernel_.operation(comm.reader);
        h.i32(static_cast<int>(consumer.opcode));
        h.boolean(consumer.isCopy());
        hashReadStub(h, comm.readStub);
        bool reader_scheduled = isScheduled(comm.reader);
        h.boolean(reader_scheduled);
        if (reader_scheduled) {
            h.u64(schedule_.placement(comm.reader).fu.index());
            h.i32(issueCycleOf(comm.reader));
        }
    }
    h.u64(reservations_.stubStateHash(cycle, hot_.nogoodInvalidations));
    return h.state;
}

bool
BlockScheduler::noGoodHit(std::uint64_t sig)
{
    ++hot_.nogoodProbes;
    if (noGoods_.contains(sig)) {
        ++hot_.nogoodHits;
        return true;
    }
    ++hot_.nogoodMisses;
    return false;
}

void
BlockScheduler::noteNoGood(std::uint64_t sig)
{
    if (aborted_) {
        // The failure was (or may have been) induced by the abort
        // zeroing the budget; that is not a property of the inputs, so
        // it must not be learned.
        return;
    }
    if (noGoods_.insert(sig)) {
        ++hot_.nogoodInserts;
        if (options_.crossAttemptNoGoods &&
            learnedNoGoods_.size() < NoGoodExchange::kCapacity) {
            learnedNoGoods_.push_back(sig);
        }
    }
}

BlockScheduler::ScratchGuard::ScratchGuard(BlockScheduler &owner)
    : owner_(owner),
      sc(*[&]() -> PermScratch * {
          if (owner.permDepth_ == owner.permPool_.size())
              owner.permPool_.push_back(
                  std::make_unique<PermScratch>());
          return owner.permPool_[owner.permDepth_++].get();
      }())
{}

BlockScheduler::ScratchGuard::~ScratchGuard()
{
    --owner_.permDepth_;
}

std::span<const ReadStub>
BlockScheduler::readCandidatesFor(const Communication &comm,
                                  std::vector<ReadStub> &storage) const
{
    const Placement &rp = schedule_.placement(comm.reader);
    CS_ASSERT(rp.scheduled, "read candidates need a placed reader");
    // A copy fetches its operand through any input of its unit.
    const std::vector<ReadStub> &all =
        kernel_.operation(comm.reader).isCopy()
            ? machine_.readStubsAnySlot(rp.fu)
            : machine_.readStubs(rp.fu, comm.slot);

    bool closing = comm.isLiveIn() ||
                   (comm.writer.valid() && isScheduled(comm.writer));
    if (!closing || comm.isLiveIn()) {
        // Open or live-in: keep machine order, but prefer the current
        // assignment for stability across re-permutations. When there
        // is no current assignment — or it already heads the list —
        // the machine's own list has the right order verbatim.
        if (!comm.readStub || (!all.empty() && all.front() == *comm.readStub))
            return all;
        storage.clear();
        storage.push_back(*comm.readStub);
        for (const ReadStub &stub : all) {
            if (stub != *comm.readStub)
                storage.push_back(stub);
        }
        return storage;
    }

    // Closing: prefer stubs that form a route with the writer's
    // tentative write stub, then files the writer could retarget to,
    // then by copy distance.
    const Placement &wp = schedule_.placement(comm.writer);
    RegFileId current_write_rf;
    if (comm.writeStub)
        current_write_rf =
            machine_.writePortRegFile(comm.writeStub->writePort);
    const InlineBitset &writable_mask = machine_.writableMask(wp.fu);

    // Rank depends only on the stub's register file; the copy-distance
    // minimum over the writer's files is a shared-context table lookup.
    auto rank_of = [&](RegFileId rf) {
        if (rf == current_write_rf)
            return 0;
        if (writable_mask.test(rf.index()))
            return 1;
        return 2 + ctx_->minCopiesFromFu(wp.fu, rf);
    };

    auto &ranked = rankedRead_;
    ranked.clear();
    ranked.reserve(all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        auto r = static_cast<std::uint64_t>(static_cast<std::uint32_t>(
            rank_of(machine_.readPortRegFile(all[i].readPort))));
        ranked.emplace_back((r << 32) | i, all[i]);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    storage.clear();
    storage.reserve(ranked.size());
    for (auto &[r, stub] : ranked)
        storage.push_back(stub);
    return storage;
}

const BlockScheduler::WriteEmitPlan &
BlockScheduler::openWritePlan(std::span<const std::uint8_t> codes,
                              FuncUnitId fu) const
{
    auto [it, fresh] =
        writePlans_.try_emplace(WritePlanKey{codes.data(), fu.index()});
    WriteEmitPlan &plan = it->second;
    if (!fresh)
        return plan;
    const std::vector<WriteStub> &all = machine_.writeStubs(fu);
    const auto &groups = machine_.writeStubsByBus(fu);
    std::size_t n = machine_.numBuses();
    plan.stubs.reserve(all.size());
    plan.busMask.resize(n);
    for (std::size_t b = 0; b < n; ++b) {
        auto first_run = static_cast<std::uint32_t>(plan.runs.size());
        // Reachable stubs of the bus first, then serviceable-only:
        // within a bucket the unplanned loop keeps one bus's stubs in
        // list order, and no bucket mixes the two classes (reachable
        // ranks 0-3 and serviceable ranks 4-7 are disjoint), so the
        // regrouping never reorders a bucket.
        auto begin = static_cast<std::uint32_t>(plan.stubs.size());
        for (std::uint32_t idx : groups[b]) {
            std::uint8_t cls =
                codes[machine_.writePortRegFile(all[idx].writePort)
                          .index()];
            if (cls == BlockSchedulingContext::kStubPruned)
                ++plan.pruned;
            else if (cls == BlockSchedulingContext::kStubReachable)
                plan.stubs.push_back(all[idx]);
        }
        auto mid = static_cast<std::uint32_t>(plan.stubs.size());
        for (std::uint32_t idx : groups[b]) {
            std::uint8_t cls =
                codes[machine_.writePortRegFile(all[idx].writePort)
                          .index()];
            if (cls == BlockSchedulingContext::kStubServiceableOnly)
                plan.stubs.push_back(all[idx]);
        }
        auto end = static_cast<std::uint32_t>(plan.stubs.size());
        if (mid > begin)
            plan.runs.push_back({3, begin, mid});
        if (end > mid)
            plan.runs.push_back({7, mid, end});
        auto end_run = static_cast<std::uint32_t>(plan.runs.size());
        if (end_run > first_run) {
            plan.buses.push_back({static_cast<std::uint32_t>(b),
                                  first_run, end_run});
            plan.busMask.set(b);
        }
    }
    return plan;
}

const BlockScheduler::WriteEmitPlan &
BlockScheduler::closeWritePlan(std::span<const std::uint16_t> base,
                               FuncUnitId fu) const
{
    auto [it, fresh] =
        writePlans_.try_emplace(WritePlanKey{base.data(), fu.index()});
    WriteEmitPlan &plan = it->second;
    if (!fresh)
        return plan;
    const std::vector<WriteStub> &all = machine_.writeStubs(fu);
    const auto &groups = machine_.writeStubsByBus(fu);
    std::size_t n = machine_.numBuses();
    plan.stubs.reserve(all.size());
    plan.busMask.resize(n);
    plan.closing = true;
    // Group one bus's stubs by base rank, each group in list order
    // (run order within a bus is irrelevant: every run feeds its own
    // bucket). Quadratic in the bus's stub count with tiny factors,
    // and paid once per (read file, unit) pair.
    for (std::size_t b = 0; b < n; ++b) {
        auto first_run = static_cast<std::uint32_t>(plan.runs.size());
        const std::vector<std::uint32_t> &group = groups[b];
        for (std::size_t i = 0; i < group.size(); ++i) {
            std::uint16_t rank =
                base[machine_
                         .writePortRegFile(all[group[i]].writePort)
                         .index()];
            bool seen = false;
            for (std::size_t j = 0; j < i && !seen; ++j) {
                seen = base[machine_
                                .writePortRegFile(
                                    all[group[j]].writePort)
                                .index()] == rank;
            }
            if (seen)
                continue;
            auto begin = static_cast<std::uint32_t>(plan.stubs.size());
            for (std::size_t j = i; j < group.size(); ++j) {
                if (base[machine_
                             .writePortRegFile(
                                 all[group[j]].writePort)
                             .index()] == rank) {
                    plan.stubs.push_back(all[group[j]]);
                }
            }
            auto end = static_cast<std::uint32_t>(plan.stubs.size());
            plan.runs.push_back({rank, begin, end});
        }
        auto end_run = static_cast<std::uint32_t>(plan.runs.size());
        if (end_run > first_run) {
            plan.buses.push_back({static_cast<std::uint32_t>(b),
                                  first_run, end_run});
            plan.busMask.set(b);
        }
    }
    return plan;
}

const BlockScheduler::WriteEmitPlan &
BlockScheduler::writePlanFor(const Communication &comm) const
{
    CS_ASSERT(comm.writer.valid(), "write candidates need a writer");
    const Placement &wp = schedule_.placement(comm.writer);
    CS_ASSERT(wp.scheduled, "write candidates need a placed writer");
    if (isScheduled(comm.reader) && comm.readStub.has_value()) {
        // Closing: base ranks against the file the reader reads from.
        RegFileId read_rf =
            machine_.readPortRegFile(comm.readStub->readPort);
        return closeWritePlan(ctx_->closeBaseRow(read_rf), wp.fu);
    }
    // Open: the Section 4.5 class codes of the reader's shape (see the
    // open branch of writeCandidatesFor).
    const Operation &consumer = kernel_.operation(comm.reader);
    std::span<const std::uint8_t> codes =
        isScheduled(comm.reader)
            ? (consumer.isCopy()
                   ? ctx_->openCodesScheduledCopy(
                         schedule_.placement(comm.reader).fu)
                   : ctx_->openCodesScheduled(
                         schedule_.placement(comm.reader).fu,
                         comm.slot))
            : (consumer.isCopy()
                   ? ctx_->openCodesUnscheduledCopy()
                   : ctx_->openCodesUnscheduled(consumer.opcode,
                                                comm.slot));
    const WriteEmitPlan &plan = openWritePlan(codes, wp.fu);
    hot_.pruneRouteMask += plan.pruned;
    return plan;
}

std::span<const WriteStub>
BlockScheduler::writeCandidatesFor(const Communication &comm,
                                   const WriteEmitPlan &plan,
                                   std::vector<WriteStub> &storage) const
{
    int cycle = writeStubCycleOf(comm.writer);

    // Per-bus value cache for this (value, cycle) query. bus_val[b]
    // is the value bus b currently broadcasts in write role (invalid
    // when idle, and writes of different values never share a bus),
    // so a single compare decides a whole bus's rank treatment. The
    // fill is memoized against the row's stub generation: all the
    // candidate queries of one permutation call see the same row, so
    // only the first pays the per-bus walk.
    auto n = static_cast<std::uint32_t>(machine_.numBuses());
    auto &bus_val = busValueScratch_;
    {
        int row = reservations_.norm(cycle);
        std::uint32_t gen = reservations_.stubGeneration(cycle);
        if (!busValValid_ || busValRow_ != row || busValGen_ != gen) {
            reservations_.fillBusWriteValues(cycle, bus_val);
            busValRow_ = row;
            busValGen_ = gen;
            busValValid_ = true;
        }
    }

    // The preference order is (rank, rotated bus, list index), where
    // rank is a small integer: a counting sort over the precompiled
    // emission plan. Pass 1 sizes the rank buckets from the plan's
    // runs; pass 2 walks the runs in rotated-bus order, bulk-copying
    // each run at its bucket's cursor — which lays the buckets out
    // contiguously in exactly the order a stable comparison sort over
    // the raw stub list would produce.
    //
    // The rotation (every stub of one value tries buses in the same
    // order, different values start from different buses) becomes the
    // bus walk order: bus (value mod n) first, then wrapping upward.
    //
    // Finite copy distances are bounded by the register-file count,
    // so every rank above `overflow` is the single kUnreachable
    // sentinel and may share one bucket without reordering.
    const int overflow = static_cast<int>(machine_.numRegFiles()) + 3;
    auto &buckets = bucketScratch_;
    buckets.assign(static_cast<std::size_t>(std::max(overflow, 7)) + 1,
                   0);

    if (plan.closing) {
        // Base ranks against the read file are a context table row
        // (indexed by the stub's register file); only the bus-sharing
        // preference (rank 0 vs 1 in the same file) depends on live
        // reservation state, and it is uniform across a bus.
        auto rank_of = [&](const WriteEmitPlan::Run &run,
                           std::uint32_t b) {
            return run.rank == BlockSchedulingContext::kSameFile
                       ? (bus_val[b] == comm.value ? 0 : 1)
                       : static_cast<int>(run.rank);
        };
        for (const WriteEmitPlan::BusRuns &br : plan.buses) {
            for (std::uint32_t r = br.firstRun; r < br.endRun; ++r) {
                const WriteEmitPlan::Run &run = plan.runs[r];
                buckets[rank_of(run, br.bus)] +=
                    static_cast<int>(run.end - run.begin);
            }
        }
        int total = 0;
        for (int &c : buckets) {
            int width = c;
            c = total;
            total += width;
        }
        storage.resize(static_cast<std::size_t>(total));
        std::uint32_t start = comm.value.index() % n;
        std::size_t nb = plan.buses.size();
        std::size_t split = 0;
        while (split < nb && plan.buses[split].bus < start)
            ++split;
        for (std::size_t k = 0; k < nb; ++k) {
            std::size_t i = split + k;
            if (i >= nb)
                i -= nb;
            const WriteEmitPlan::BusRuns &br = plan.buses[i];
            for (std::uint32_t r = br.firstRun; r < br.endRun; ++r) {
                const WriteEmitPlan::Run &run = plan.runs[r];
                auto len = run.end - run.begin;
                int &cursor = buckets[rank_of(run, br.bus)];
                std::copy_n(plan.stubs.data() + run.begin, len,
                            storage.data() + cursor);
                cursor += static_cast<int>(len);
            }
        }
        return storage;
    }

    // Open: the reader is not placed yet, but the set of register
    // files any capable unit could read the operand from is known.
    // Preferring those files surfaces port contention *now*, while
    // the scheduler can still delay this producer; a stub into an
    // unreadable file is guaranteed to need fixing at close time, and
    // a stub into a file that cannot reach the reader even through
    // copies would strand the value (the Section 4.5 trap) — the plan
    // drops those outright, making the *producer's* placement fail so
    // it slides to a cycle where a useful port is free. The whole
    // Section 4.5 analysis (readable-file masks x copy reachability
    // closure) depends only on the reader's shape, so the plan bakes
    // it into default ranks (3 reachable / 7 serviceable-only); only
    // "special" buses — one already broadcasting this value, or the
    // one holding the tentative stub — need stub-level ranks.
    std::uint32_t ws_bus = comm.writeStub
                               ? comm.writeStub->bus.index()
                               : UINT32_MAX;
    auto is_special = [&](std::uint32_t b) {
        return b == ws_bus || bus_val[b] == comm.value;
    };
    // Rank the special buses' stubs once (the scratch is reused by
    // the emission pass) and size their buckets; everything else
    // contributes whole runs at the default ranks.
    auto &sranks = stubRankScratch_;
    sranks.clear();
    auto &special = specialBusScratch_;
    special.clear();
    for (const WriteEmitPlan::BusRuns &br : plan.buses) {
        if (!is_special(br.bus))
            continue;
        special.emplace_back(
            br.bus, static_cast<std::uint32_t>(sranks.size()));
        bool carrying = bus_val[br.bus] == comm.value;
        for (std::uint32_t r = br.firstRun; r < br.endRun; ++r) {
            const WriteEmitPlan::Run &run = plan.runs[r];
            bool reachable = run.rank == 3;
            for (std::uint32_t i = run.begin; i < run.end; ++i) {
                const WriteStub &stub = plan.stubs[i];
                int rank;
                if (comm.writeStub && stub == *comm.writeStub) {
                    rank = reachable ? 0 : 4;
                } else if (carrying) {
                    // The bus already broadcasts this value; an
                    // identical reservation (sharable stub) ranks
                    // above merely riding the bus through another
                    // port. A write of the same value on another bus
                    // never has an identical stub, so the bus compare
                    // is an exact prefilter.
                    rank = reservations_.hasIdenticalWrite(
                               stub, comm.value, cycle)
                               ? (reachable ? 1 : 5)
                               : (reachable ? 2 : 6);
                } else {
                    rank = reachable ? 3 : 7;
                }
                sranks.push_back(rank);
                ++buckets[rank];
            }
        }
    }
    for (const WriteEmitPlan::BusRuns &br : plan.buses) {
        if (is_special(br.bus))
            continue;
        for (std::uint32_t r = br.firstRun; r < br.endRun; ++r) {
            const WriteEmitPlan::Run &run = plan.runs[r];
            buckets[run.rank] += static_cast<int>(run.end - run.begin);
        }
    }

    // Bucket counts -> start offsets.
    int total = 0;
    for (int &c : buckets) {
        int width = c;
        c = total;
        total += width;
    }

    storage.resize(static_cast<std::size_t>(total));
    std::uint32_t start = comm.value.index() % n;
    std::size_t nb = plan.buses.size();
    std::size_t split = 0;
    while (split < nb && plan.buses[split].bus < start)
        ++split;
    for (std::size_t k = 0; k < nb; ++k) {
        std::size_t bi = split + k;
        if (bi >= nb)
            bi -= nb;
        const WriteEmitPlan::BusRuns &br = plan.buses[bi];
        if (is_special(br.bus)) {
            std::uint32_t offset = 0;
            for (const auto &[sb, so] : special) {
                if (sb == br.bus) {
                    offset = so;
                    break;
                }
            }
            for (std::uint32_t r = br.firstRun; r < br.endRun; ++r) {
                const WriteEmitPlan::Run &run = plan.runs[r];
                for (std::uint32_t i = run.begin; i < run.end; ++i)
                    storage[static_cast<std::size_t>(
                        buckets[sranks[offset++]]++)] = plan.stubs[i];
            }
            continue;
        }
        for (std::uint32_t r = br.firstRun; r < br.endRun; ++r) {
            const WriteEmitPlan::Run &run = plan.runs[r];
            auto len = run.end - run.begin;
            int &cursor = buckets[run.rank];
            std::copy_n(plan.stubs.data() + run.begin, len,
                        storage.data() + cursor);
            cursor += static_cast<int>(len);
        }
    }
    return storage;
}

/**
 * Read side of the permutation search (step 2): the communications
 * reading on the cycle, each taking one read stub at its reader's
 * issue cycle.
 */
struct BlockScheduler::ReadSide
{
    using Stub = ReadStub;
    static constexpr const char *kSpan = "perm_search.read";
    BlockScheduler &s;

    static StubBuffers<ReadStub> &buffers(PermScratch &sc)
    {
        return sc.read;
    }
    void collect(int cycle, std::vector<CommId> &out) const
    {
        s.commsReadingAt(cycle, out);
    }
    bool closing(const Communication &comm) const
    {
        return comm.isLiveIn() ||
               (comm.writer.valid() && s.isScheduled(comm.writer));
    }
    std::uint64_t signature(const std::vector<CommId> &ids, int cycle,
                            CommId constrain, RegFileId wantRf) const
    {
        return s.readSearchSignature(ids, cycle, constrain, wantRf);
    }
    const std::optional<ReadStub> &held(const Communication &comm) const
    {
        return comm.readStub;
    }
    int cycleOf(const Communication &comm) const
    {
        return s.issueCycleOf(comm.reader);
    }
    void resolve(PermScratch &) const {}
    std::span<const ReadStub> candidates(PermScratch &, std::size_t,
                                         const Communication &comm,
                                         std::vector<ReadStub> &store) const
    {
        return s.readCandidatesFor(comm, store);
    }
    RegFileId regFileOf(const ReadStub &stub) const
    {
        return s.machine_.readPortRegFile(stub.readPort);
    }
    bool precheck(PermScratch &, int, std::size_t) const { return true; }
    /** A write stub on this bus rejects any read outright: the probe's
     *  own first check, made O(1). */
    bool prune(const Communication &, const ReadStub &stub, int at) const
    {
        if (!s.reservations_.busHasWrite(stub.bus, at))
            return false;
        ++s.hot_.pruneReadBus;
        return true;
    }
    bool probe(const Communication &comm, const ReadStub &stub,
               int at) const
    {
        ++s.hot_.probeReads;
        return s.reservations_.canAcquireRead(stub, comm.reader,
                                              comm.slot, at);
    }
    void acquire(const Communication &comm, const ReadStub &stub,
                 int at) const
    {
        s.doAcquireRead(stub, comm.reader, comm.slot, at);
    }
    void release(const Communication &comm, const ReadStub &stub,
                 int at) const
    {
        s.doReleaseRead(stub, comm.reader, comm.slot, at);
    }
    /** A budget trip is a search-policy limit, not a port fact;
     *  everything else exhausted the read-port space. */
    RejectReason failure(const PermScratch &, bool budgetTripped) const
    {
        return budgetTripped ? RejectReason::BudgetExhausted
                             : RejectReason::ReadPortConflict;
    }
    void commit(CommId id, const ReadStub &stub) const
    {
        s.setReadStub(id, stub);
    }
    void noteFound() const { ++s.hot_.readPermsFound; }
};

/**
 * Write side of the permutation search (step 3): the communications
 * writing on the cycle, each taking one write stub at its writer's
 * write-stub cycle.
 */
struct BlockScheduler::WriteSide
{
    using Stub = WriteStub;
    static constexpr const char *kSpan = "perm_search.write";
    BlockScheduler &s;

    static StubBuffers<WriteStub> &buffers(PermScratch &sc)
    {
        return sc.write;
    }
    void collect(int cycle, std::vector<CommId> &out) const
    {
        s.commsWritingAt(cycle, out);
    }
    bool closing(const Communication &comm) const
    {
        return s.isScheduled(comm.reader) && comm.readStub.has_value();
    }
    std::uint64_t signature(const std::vector<CommId> &ids, int cycle,
                            CommId constrain, RegFileId wantRf) const
    {
        return s.writeSearchSignature(ids, cycle, constrain, wantRf);
    }
    const std::optional<WriteStub> &held(const Communication &comm) const
    {
        return comm.writeStub;
    }
    int cycleOf(const Communication &comm) const
    {
        return s.writeStubCycleOf(comm.writer);
    }
    /** Each participant's emission plan, looked up once per search. */
    void resolve(PermScratch &sc) const
    {
        sc.writePlans.clear();
        for (CommId id : sc.ids)
            sc.writePlans.push_back(&s.writePlanFor(s.comms_.get(id)));
    }
    std::span<const WriteStub>
    candidates(PermScratch &sc, std::size_t level,
               const Communication &comm,
               std::vector<WriteStub> &store) const
    {
        return s.writeCandidatesFor(comm, *sc.writePlans[level], store);
    }
    RegFileId regFileOf(const WriteStub &stub) const
    {
        return s.machine_.writePortRegFile(stub.writePort);
    }

    /**
     * Fast infeasibility check, run before any candidate list exists
     * except the pinned (constrained) one: different values never
     * share a bus, so the distinct values here need at least as many
     * usable buses (idle, or already carrying one of these values in
     * write role) among the candidate stubs. A plan's bus mask is
     * exactly its candidate list's bus set; the pinned list is
     * filtered to one register file, so its buses come from the list.
     * Everything read is hashed into the signature (the plan keys'
     * inputs, values, the row), so a no-good learned from it is as
     * exact as one learned from the DFS.
     */
    bool precheck(PermScratch &sc, int cycle, std::size_t pinned) const
    {
        auto &distinct = sc.distinctValues;
        distinct.clear();
        for (CommId id : sc.ids) {
            ValueId v = s.comms_.get(id).value;
            if (std::find(distinct.begin(), distinct.end(), v) ==
                distinct.end()) {
                distinct.push_back(v);
            }
        }
        // The availability probes run per candidate bus, not per stub.
        const Machine &machine = s.machine_;
        InlineBitset &cand_buses = sc.candidateBuses;
        cand_buses.resize(machine.numBuses());
        for (std::size_t i = 0; i < sc.ids.size(); ++i) {
            if (i != pinned) {
                cand_buses.orWith(sc.writePlans[i]->busMask);
                continue;
            }
            for (const WriteStub &stub : sc.write.candidates[i])
                cand_buses.set(stub.bus.index());
        }
        std::size_t usable_count = 0;
        for (std::size_t b = 0; b < machine.numBuses(); ++b) {
            if (!cand_buses.test(b))
                continue;
            BusId bus(static_cast<std::uint32_t>(b));
            for (ValueId v : distinct) {
                if (s.reservations_.busAvailableForValue(bus, v, cycle)) {
                    ++usable_count;
                    break;
                }
            }
        }
        if (distinct.size() <= usable_count)
            return true;
        ++s.hot_.writePermBusPrechecks;
        s.noteReject(RejectReason::BusConflict);
        return false;
    }

    /** A read stub on the bus, or a write of another value, rejects
     *  this stub no matter what else is reserved. */
    bool prune(const Communication &comm, const WriteStub &stub,
               int at) const
    {
        ReservationTable::BusWriteProbe bus_probe =
            s.reservations_.busWriteProbe(stub.bus, at);
        if (!bus_probe.hasRead &&
            (!bus_probe.value.valid() || bus_probe.value == comm.value))
            return false;
        ++s.hot_.pruneWriteBus;
        return true;
    }
    bool probe(const Communication &comm, const WriteStub &stub,
               int at) const
    {
        ++s.hot_.probeWrites;
        return s.reservations_.canAcquireWrite(stub, comm.value, at);
    }
    void acquire(const Communication &comm, const WriteStub &stub,
                 int at) const
    {
        s.doAcquireWrite(stub, comm.value, at);
    }
    void release(const Communication &comm, const WriteStub &stub,
                 int at) const
    {
        s.doReleaseWrite(stub, comm.value, at);
    }
    /** A communication with no candidate write stubs at all is the
     *  "no serviceable write stub" case (nothing the other levels
     *  choose can fix an empty list); a budget trip is a policy limit;
     *  the rest exhausted the write-port space. */
    RejectReason failure(const PermScratch &sc, bool budgetTripped) const
    {
        for (const auto &list : sc.write.candidates) {
            if (list.empty())
                return RejectReason::NoServiceableWriteStub;
        }
        return budgetTripped ? RejectReason::BudgetExhausted
                             : RejectReason::WritePortConflict;
    }
    void commit(CommId id, const WriteStub &stub) const
    {
        s.setWriteStub(id, stub);
    }
    void noteFound() const { ++s.hot_.writePermsFound; }
};

template <class Side>
bool
BlockScheduler::permuteStubs(int cycle, CommId constrain, RegFileId wantRf)
{
    using Stub = typename Side::Stub;
    const Side side{*this};
    ScratchGuard guard(*this);
    PermScratch &sc = guard.sc;
    StubBuffers<Stub> &buf = Side::buffers(sc);
    std::vector<CommId> &ids = sc.ids;
    side.collect(cycle, ids);
    if (constrain.valid() &&
        std::find(ids.begin(), ids.end(), constrain) == ids.end()) {
        return false;
    }
    if (ids.empty())
        return true;
    CS_TRACE_SPAN1(Side::kSpan, "comms", ids.size());

    // Order: closing before open, smallest copy range first. Keys are
    // computed once per communication, not once per comparison.
    auto &order = sc.orderKeys;
    order.clear();
    order.reserve(ids.size());
    for (CommId id : ids) {
        const Communication &comm = comms_.get(id);
        bool closing = side.closing(comm);
        int range = INT_MAX;
        if (closing && !comm.isLiveIn()) {
            range = issueCycleOf(comm.reader) + comm.distance * ii_ -
                    (issueCycleOf(comm.writer) +
                     latencyOf(comm.writer));
        }
        order.emplace_back(packCommOrderKey(!closing, range), id);
    }
    std::sort(order.begin(), order.end(),
              [](const auto &a, const auto &b) {
                  return a.first != b.first
                             ? a.first < b.first
                             : a.second.index() < b.second.index();
              });
    for (std::size_t i = 0; i < ids.size(); ++i)
        ids[i] = order[i].second;

    // No-good probe. A failed search call is observationally pure
    // (its undo pairs cancel and no stub field changes), so when a
    // failure's signature recurs the DFS may be skipped outright. The
    // signature is taken against the pre-release state; the released
    // previous assignments are part of it, so the post-release state
    // the search actually probes is fully determined by it. While the
    // table is empty a probe cannot hit, so the signature is deferred
    // to failure time — legal because a failed search restores that
    // exact pre-release state (the row hash is order-independent, so
    // use-list reordering from the undo pairs cannot change it) —
    // and successful searches then pay nothing for the cache.
    std::uint64_t sig = 0;
    bool sigValid = false;
    if (options_.noGoodCache && noGoods_.size() != 0) {
        sig = side.signature(ids, cycle, constrain, wantRf);
        sigValid = true;
        if (noGoodHit(sig)) {
            noteReject(RejectReason::NoGoodHit);
            return false;
        }
    }

    // Release current assignments; remember them for rollback.
    auto &previous = buf.previous;
    previous.assign(ids.size(), std::nullopt);
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const Communication &comm = comms_.get(ids[i]);
        previous[i] = side.held(comm);
        if (previous[i])
            side.release(comm, *previous[i], side.cycleOf(comm));
    }

    // Failure epilogue: restore the previous stubs (everything the
    // search acquired is already released) and learn the failure
    // unless an abort caused it. State is restored, so a deferred
    // signature computed now equals the one a probe at entry would
    // have seen.
    auto give_up = [&] {
        for (std::size_t i = 0; i < ids.size(); ++i) {
            if (previous[i]) {
                const Communication &comm = comms_.get(ids[i]);
                side.acquire(comm, *previous[i], side.cycleOf(comm));
            }
        }
        if (options_.noGoodCache) {
            if (!sigValid)
                sig = side.signature(ids, cycle, constrain, wantRf);
            noteNoGood(sig);
        }
        return false;
    };

    // Candidate lists (post-release so sharing probes see the truth).
    // The side resolves what the lists derive from first (the write
    // side's emission plans), and the precheck decides from that, so
    // a rejected search builds no list but the pinned one: the
    // constrained communication's list, filtered to wantRf.
    side.resolve(sc);
    if (buf.store.size() < ids.size())
        buf.store.resize(ids.size());
    auto &candidates = buf.candidates;
    candidates.resize(ids.size());
    auto build = [&](std::size_t i) {
        candidates[i] =
            side.candidates(sc, i, comms_.get(ids[i]), buf.store[i]);
    };
    std::size_t pinned = ids.size();
    if (constrain.valid()) {
        pinned = static_cast<std::size_t>(
            std::find(ids.begin(), ids.end(), constrain) - ids.begin());
        build(pinned);
        std::vector<Stub> &store = buf.store[pinned];
        if (candidates[pinned].data() != store.data())
            store.assign(candidates[pinned].begin(),
                         candidates[pinned].end());
        std::erase_if(store, [&](const Stub &stub) {
            return side.regFileOf(stub) != wantRf;
        });
        candidates[pinned] = store;
    }
    if (!side.precheck(sc, cycle, pinned))
        return give_up();
    for (std::size_t i = 0; i < ids.size(); ++i) {
        if (i != pinned)
            build(i);
    }

    // Bounded chronological depth-first search. On success every
    // level's acquisition is held and choice[] names it. The budget is
    // charged once per candidate considered, pruned or probed.
    auto &choice = sc.choice;
    choice.assign(ids.size(), -1);
    int budget = options_.permutationBudget;
    bool budgetTripped = false;
    std::size_t level = 0;
    while (level < ids.size()) {
        const Communication &comm = comms_.get(ids[level]);
        int at = side.cycleOf(comm);
        // Cooperative cancellation rides the budget: zeroing it makes
        // this expansion step take the exhaustion rollback, so an
        // abort costs one relaxed load per DFS step and nothing on the
        // candidate loop.
        if (abortRequested())
            budget = 0;
        ++hot_.dfsNodes;
        std::span<const Stub> level_cands = candidates[level];
        bool advanced = false;
        for (int next = choice[level] + 1;
             next < static_cast<int>(level_cands.size()); ++next) {
            if (--budget <= 0)
                break;
            const Stub &stub = level_cands[next];
            if (side.prune(comm, stub, at) || !side.probe(comm, stub, at))
                continue;
            side.acquire(comm, stub, at);
            choice[level] = next;
            advanced = true;
            break;
        }
        if (advanced) {
            ++level;
            continue;
        }
        if (budget <= 0) {
            ++hot_.permBudgetExhausted;
            budgetTripped = true;
            break;
        }
        if (level == 0)
            break;
        // Dead level: step back and resume the previous level's scan
        // at its next candidate.
        choice[level] = -1;
        --level;
        const Communication &held = comms_.get(ids[level]);
        side.release(held, candidates[level][choice[level]],
                     side.cycleOf(held));
        ++hot_.permBacktracks;
    }

    if (level < ids.size()) {
        while (level > 0) {
            --level;
            const Communication &held = comms_.get(ids[level]);
            side.release(held, candidates[level][choice[level]],
                         side.cycleOf(held));
        }
        // An aborted search was already classified at the latch.
        if (!aborted_)
            noteReject(side.failure(sc, budgetTripped));
        return give_up();
    }

    for (std::size_t i = 0; i < ids.size(); ++i)
        side.commit(ids[i], candidates[i][choice[i]]);
    side.noteFound();
    return true;
}

bool
BlockScheduler::permuteReadStubs(int cycle)
{
    return permuteStubs<ReadSide>(cycle, CommId(), RegFileId());
}

bool
BlockScheduler::permuteWriteStubs(int cycle)
{
    return permuteStubs<WriteSide>(cycle, CommId(), RegFileId());
}

bool
BlockScheduler::tryRetargetWriteSide(Communication &comm,
                                     RegFileId wantRf)
{
    if (!comm.writer.valid() || !isScheduled(comm.writer))
        return false;
    // Fast reject: can the writer's unit reach that file at all?
    const Placement &wp = schedule_.placement(comm.writer);
    if (!machine_.writableMask(wp.fu).test(wantRf.index()))
        return false;
    return permuteStubs<WriteSide>(writeStubCycleOf(comm.writer), comm.id,
                                   wantRf);
}

bool
BlockScheduler::tryRetargetReadSide(Communication &comm,
                                    RegFileId wantRf)
{
    if (!isScheduled(comm.reader))
        return false;
    const Placement &rp = schedule_.placement(comm.reader);
    const InlineBitset &readable =
        kernel_.operation(comm.reader).isCopy()
            ? machine_.readableAnyMask(rp.fu)
            : machine_.readableMask(rp.fu, comm.slot);
    if (!readable.test(wantRf.index()))
        return false;
    return permuteStubs<ReadSide>(issueCycleOf(comm.reader), comm.id,
                                  wantRf);
}

} // namespace cs
