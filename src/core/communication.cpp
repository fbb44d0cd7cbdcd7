#include "core/communication.hpp"

#include "support/logging.hpp"

namespace cs {

CommId
CommTable::find(OperationId reader, int slot) const
{
    for (CommId id : byReader(reader)) {
        const Communication &comm = comms_[id.index()];
        if (comm.active && comm.slot == slot)
            return id;
    }
    return CommId();
}

CommId
CommTable::create(OperationId writer, ValueId value, OperationId reader,
                  int slot, int distance)
{
    CS_ASSERT(!find(reader, slot).valid(),
              "communication already exists for this operand");
    CommId id(static_cast<std::uint32_t>(comms_.size()));
    Communication comm;
    comm.id = id;
    comm.writer = writer;
    comm.value = value;
    comm.reader = reader;
    comm.slot = slot;
    comm.distance = distance;
    comms_.push_back(comm);
    byValue_.push(value.index(), id);
    if (writer.valid())
        byWriter_.push(writer.index(), id);
    byReader_.push(reader.index(), id);
    return id;
}

void
CommTable::deactivate(CommId id)
{
    Communication &comm = get(id);
    CS_ASSERT(comm.active, "communication already inactive");
    comm.active = false;
}

void
CommTable::removeLast(CommId id)
{
    CS_ASSERT(!comms_.empty() && comms_.back().id == id,
              "removeLast must pop the newest communication");
    const Communication &comm = comms_.back();
    byValue_.pop(comm.value.index(), id);
    if (comm.writer.valid())
        byWriter_.pop(comm.writer.index(), id);
    byReader_.pop(comm.reader.index(), id);
    comms_.pop_back();
}

void
CommTable::reactivate(CommId id)
{
    Communication &comm = get(id);
    CS_ASSERT(!comm.active, "communication already active");
    CS_ASSERT(!find(comm.reader, comm.slot).valid(),
              "another communication feeds this operand");
    comm.active = true;
}

Communication &
CommTable::get(CommId id)
{
    CS_ASSERT(id.valid() && id.index() < comms_.size(), "bad comm id ",
              id);
    return comms_[id.index()];
}

const Communication &
CommTable::get(CommId id) const
{
    CS_ASSERT(id.valid() && id.index() < comms_.size(), "bad comm id ",
              id);
    return comms_[id.index()];
}

std::span<const CommId>
CommTable::byValue(ValueId value) const
{
    return byValue_.at(value.index());
}

std::span<const CommId>
CommTable::byWriter(OperationId op) const
{
    return byWriter_.at(op.index());
}

std::span<const CommId>
CommTable::byReader(OperationId op) const
{
    return byReader_.at(op.index());
}

} // namespace cs
