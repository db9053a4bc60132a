#include "sim/trace_recorder.hpp"

#include <cstring>
#include <limits>

#include "common/error.hpp"

namespace focs::sim {
namespace {

/// Hash of a key tuple's 12 bytes: two loads and one multiply-fold.
std::size_t tuple_hash(const StageKeyTuple& tuple) {
    static_assert(sizeof(StageKeyTuple) == 12, "a key tuple is six 16-bit keys");
    std::uint64_t lo = 0;
    std::uint32_t hi = 0;
    std::memcpy(&lo, tuple.data(), sizeof lo);
    std::memcpy(&hi, tuple.data() + 4, sizeof hi);
    const std::uint64_t h = (lo ^ (std::uint64_t{hi} << 21)) * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h ^ (h >> 29));
}

}  // namespace

void TraceRecorder::on_cycle(const CycleRecord& record) {
    const StageKeyTuple keys = dta::attribution_keys(record);
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = tuple_hash(keys) & mask;
    while (slots_[slot] != 0) {
        const std::uint32_t id = slots_[slot] - 1;
        if (trace_.tuples[id] == keys) {
            trace_.tuple_ids.push_back(id);
            return;
        }
        slot = (slot + 1) & mask;
    }
    check(trace_.tuples.size() < std::numeric_limits<std::uint32_t>::max(),
          "trace has more distinct key tuples than 32-bit ids can name");
    const auto id = static_cast<std::uint32_t>(trace_.tuples.size());
    trace_.tuples.push_back(keys);
    trace_.tuple_ids.push_back(id);
    slots_[slot] = id + 1;
    if (2 * trace_.tuples.size() > slots_.size()) grow_index();
}

void TraceRecorder::grow_index() {
    slots_.assign(2 * slots_.size(), 0);
    const std::size_t mask = slots_.size() - 1;
    for (std::uint32_t id = 0; id < trace_.tuples.size(); ++id) {
        std::size_t slot = tuple_hash(trace_.tuples[id]) & mask;
        while (slots_[slot] != 0) slot = (slot + 1) & mask;
        slots_[slot] = id + 1;
    }
}

PipelineTrace TraceRecorder::take() {
    trace_.tuples.shrink_to_fit();
    trace_.tuple_ids.shrink_to_fit();
    return std::move(trace_);
}

PipelineTrace record_trace(const assembler::Program& program, const MachineConfig& config) {
    Machine machine(config);
    machine.load(program);
    TraceRecorder recorder;
    const RunResult guest = machine.run(&recorder);
    PipelineTrace trace = recorder.take();
    trace.guest = guest;
    return trace;
}

}  // namespace focs::sim
