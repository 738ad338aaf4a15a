#include "memory.hh"

namespace nectar::cab {

bool
CabMemory::mapped(std::uint32_t addr, std::uint32_t len) const
{
    if (len == 0)
        return addr < addrmap::spaceSize;
    if (addr + len < addr)
        return false;
    auto inside = [&](std::uint32_t base, std::uint32_t size) {
        return addr >= base && addr + len <= base + size;
    };
    return inside(addrmap::promBase, addrmap::promSize) ||
           inside(addrmap::programRamBase, addrmap::programRamSize) ||
           inside(addrmap::dataRamBase, addrmap::dataRamSize);
}

bool
CabMemory::access(Domain domain, std::uint32_t addr, std::uint32_t len,
                  Perm need, Accessor by)
{
    // PROM is immutable after factory programming, regardless of the
    // protection tables.
    const bool promWrite = (need & permWrite) &&
                           addr < addrmap::promBase + addrmap::promSize;
    if (!mapped(addr, len) || promWrite) {
        _busErrors.add();
        return false;
    }
    if (!prot.check(domain, addr, len, need))
        return false;
    byteCounts[static_cast<int>(by)].add(len);
    return true;
}

std::uint64_t
CabMemory::totalBytes() const
{
    std::uint64_t n = 0;
    for (const auto &c : byteCounts)
        n += c.value();
    return n;
}

} // namespace nectar::cab
