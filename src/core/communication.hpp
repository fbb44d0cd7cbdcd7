/**
 * @file
 * The communication abstraction (paper Section 3): one producer ->
 * consumer-operand value transfer, with the incremental open/closed
 * lifecycle of Section 4.2 / Figure 14. A communication is *open* when
 * only one of its endpoints is scheduled (its single stub is tentative
 * and may be re-permuted); it is *closed* once both stubs are pinned
 * and form a route through one register file.
 *
 * Live-in communications (the value enters the block from a preamble
 * or a prior iteration in a non-pipelined schedule) have no writer and
 * close with a read stub alone.
 */

#ifndef CS_CORE_COMMUNICATION_HPP
#define CS_CORE_COMMUNICATION_HPP

#include <optional>
#include <span>
#include <vector>

#include "machine/stub.hpp"
#include "support/ids.hpp"
#include "support/logging.hpp"

namespace cs {

/**
 * One stack of ids per dense key, grown on demand: the shape of the
 * scheduler's undo-journaled indexes. Every push is undone by a pop
 * of the same (key, id), in reverse order, so pop() asserts that the
 * id on top is the one being removed.
 */
template <typename Id>
class IdStacks
{
  public:
    std::span<const Id> at(std::size_t key) const
    {
        if (key >= stacks_.size())
            return {};
        return stacks_[key];
    }

    void push(std::size_t key, Id id)
    {
        if (key >= stacks_.size())
            stacks_.resize(key + 1);
        stacks_[key].push_back(id);
    }

    void pop(std::size_t key, Id id)
    {
        CS_ASSERT(key < stacks_.size() && !stacks_[key].empty() &&
                      stacks_[key].back() == id,
                  "index stack popped out of LIFO order");
        stacks_[key].pop_back();
    }

  private:
    std::vector<std::vector<Id>> stacks_;
};

/** One communication and its (partially) assigned route endpoints. */
struct Communication
{
    CommId id;
    /** Producing operation; invalid for live-ins. */
    OperationId writer;
    /** The communicated value. */
    ValueId value;
    /** Consuming operation and operand slot. */
    OperationId reader;
    int slot = 0;
    /** Iteration distance of the reader's operand. */
    int distance = 0;

    bool closed = false;
    bool active = true; ///< false once split by a copy insertion

    std::optional<WriteStub> writeStub;
    std::optional<ReadStub> readStub;

    bool isLiveIn() const { return !writer.valid(); }
};

/**
 * All communications of one block scheduling session. Communications
 * are created lazily as the endpoints get scheduled; the table is
 * copyable so the scheduler can snapshot and roll back failed
 * placements.
 *
 * The table indexes its entries by value, by writer and by reader so
 * the placement path never scans it whole. The index lists hold every
 * entry not yet removed, deactivated ones included: create() appends
 * and removeLast() pops, and since both follow the undo log's LIFO
 * order each list stays in ascending id order — the order a scan of
 * all() would visit them in.
 */
class CommTable
{
  public:
    /** Find the active communication feeding (reader, slot), if
     *  created. */
    CommId find(OperationId reader, int slot) const;

    /** Create a communication; returns its id. */
    CommId create(OperationId writer, ValueId value, OperationId reader,
                  int slot, int distance);

    /** Deactivate a communication (it was split by a copy). */
    void deactivate(CommId id);

    /** Undo helpers (LIFO discipline enforced). */
    void removeLast(CommId id);
    void reactivate(CommId id);

    Communication &get(CommId id);
    const Communication &get(CommId id) const;

    /**
     * @name Index views
     * Every communication (active or not) carrying @p value, written
     * by @p op, or read by @p op, in ascending id order. Callers
     * filter on Communication::active. A view is invalidated by the
     * next create() or removeLast().
     */
    /// @{
    std::span<const CommId> byValue(ValueId value) const;
    std::span<const CommId> byWriter(OperationId op) const;
    std::span<const CommId> byReader(OperationId op) const;
    /// @}

    std::size_t size() const { return comms_.size(); }
    const std::vector<Communication> &all() const { return comms_; }

  private:
    std::vector<Communication> comms_;
    IdStacks<CommId> byValue_;
    IdStacks<CommId> byWriter_; ///< live-ins (no writer) are not listed
    IdStacks<CommId> byReader_;
};

} // namespace cs

#endif // CS_CORE_COMMUNICATION_HPP
