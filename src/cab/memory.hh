/**
 * @file
 * CAB on-board memory: the address map of the program and data
 * regions, protection checks, bandwidth accounting.
 *
 * Section 5.2: "The on-board CAB memory is split into two regions:
 * one intended for use as program memory, the other as data memory.
 * ... The program memory region contains 128 kilobytes of PROM and
 * 512 kilobytes of RAM.  The data memory region contains 1 megabyte
 * of RAM.  Both memories are implemented using fast (35 nanosecond)
 * static RAM. ... the total bandwidth of the data memory is 66
 * megabytes/second, sufficient to support the following concurrent
 * accesses: CPU reads or writes, DMA to the outgoing fiber, DMA from
 * the incoming fiber, and DMA to or from VME memory."
 *
 * The simulator moves payloads as shared PacketViews, so the model
 * stores no bytes: it keeps the address map, checks every access
 * against it and the protection tables, and accounts transfers per
 * accessor so benches can verify the 66 MB/s sufficiency claim.
 */

#pragma once

#include <cstdint>

#include "cab/protection.hh"
#include "sim/stats.hh"

namespace nectar::cab {

/** CAB address-space layout. */
namespace addrmap {

constexpr std::uint32_t promBase = 0x000000;
constexpr std::uint32_t promSize = 128 * 1024;
constexpr std::uint32_t programRamBase = 0x020000;
constexpr std::uint32_t programRamSize = 512 * 1024;
constexpr std::uint32_t dataRamBase = 0x100000;
constexpr std::uint32_t dataRamSize = 1024 * 1024;
/** Size of the 24-bit-addressable region the CAB occupies on VME. */
constexpr std::uint32_t spaceSize = 0x200000;

} // namespace addrmap

/** Who initiated a memory access (for the bandwidth accounting). */
enum class Accessor { cpu, fiberOutDma, fiberInDma, vmeDma };

/**
 * The CAB's on-board memory: address map, protection and accounting.
 */
class CabMemory
{
  public:
    CabMemory() : prot(addrmap::spaceSize) {}

    MemoryProtection &protection() { return prot; }
    const MemoryProtection &protection() const { return prot; }

    /**
     * Check one access of [addr, addr+len) by @p domain needing
     * @p need, and charge its bytes to @p by.  An unmapped range or
     * any write into PROM is a bus error; then the protection tables
     * decide.
     *
     * @return false when the access is rejected (nothing is charged).
     */
    bool access(Domain domain, std::uint32_t addr, std::uint32_t len,
                Perm need, Accessor by = Accessor::cpu);

    /** True if [addr, addr+len) lies inside a mapped region. */
    bool mapped(std::uint32_t addr, std::uint32_t len) const;

    /** True if [addr, addr+len) lies entirely in data RAM. */
    bool
    inDataRam(std::uint32_t addr, std::uint32_t len) const
    {
        return addr >= addrmap::dataRamBase &&
               addr + len <= addrmap::dataRamBase + addrmap::dataRamSize &&
               addr + len >= addr;
    }

    /** Bytes moved by each accessor (bandwidth accounting). */
    std::uint64_t
    bytesBy(Accessor by) const
    {
        return byteCounts[static_cast<int>(by)].value();
    }

    /**
     * Account a bulk DMA transfer against the memory system without
     * the access checks (used by the DMA engines, whose payloads the
     * simulator moves as shared buffers).
     */
    void
    account(Accessor by, std::uint64_t bytes)
    {
        byteCounts[static_cast<int>(by)].add(bytes);
    }

    /** Total bytes moved through the memory system. */
    std::uint64_t totalBytes() const;

    /** Accesses rejected because the address was unmapped. */
    std::uint64_t busErrors() const { return _busErrors.value(); }

  private:
    MemoryProtection prot;
    sim::Counter byteCounts[4];
    sim::Counter _busErrors;
};

} // namespace nectar::cab
