#include "arch/memory.hh"

#include "common/logging.hh"

namespace piton::arch
{

MainMemory::Page &
MainMemory::pageFor(Addr addr)
{
    auto [it, inserted] = pages_.try_emplace(pageOf(addr));
    if (inserted)
        it->second.assign(kPageBytes / 8, 0);
    return it->second;
}

const MainMemory::Page *
MainMemory::pageForRead(Addr addr) const
{
    const auto it = pages_.find(pageOf(addr));
    return it == pages_.end() ? nullptr : &it->second;
}

RegVal
MainMemory::read64(Addr addr) const
{
    if ((addr & 7) != 0)
        throw ProgramFault(csprintf("unaligned 64-bit read at 0x%llx",
                                    static_cast<unsigned long long>(addr)));
    const Page *page = pageForRead(addr);
    return page ? (*page)[wordIndex(addr)] : 0;
}

void
MainMemory::write64(Addr addr, RegVal value)
{
    if ((addr & 7) != 0)
        throw ProgramFault(csprintf("unaligned 64-bit write at 0x%llx",
                                    static_cast<unsigned long long>(addr)));
    pageFor(addr)[wordIndex(addr)] = value;
}

void
MainMemory::readBlock(Addr addr, std::size_t bytes,
                      std::vector<RegVal> &out) const
{
    if ((addr & 7) != 0 || (bytes & 7) != 0)
        throw ProgramFault(csprintf("unaligned block read at 0x%llx",
                                    static_cast<unsigned long long>(addr)));
    out.clear();
    out.reserve(bytes / 8);
    for (std::size_t off = 0; off < bytes; off += 8)
        out.push_back(read64(addr + off));
}

} // namespace piton::arch
