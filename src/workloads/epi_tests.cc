#include "workloads/epi_tests.hh"

#include <bit>

#include "common/logging.hh"
#include "isa/program.hh"

namespace piton::workloads
{

namespace
{

constexpr std::uint32_t kUnroll = 20;
constexpr Addr kEpiRegionBase = 0x0100'0000;
constexpr Addr kEpiRegionStride = 0x4000; ///< 16 KB per tile

} // namespace

const char *
operandPatternName(OperandPattern p)
{
    switch (p) {
      case OperandPattern::Minimum: return "min";
      case OperandPattern::Random: return "random";
      case OperandPattern::Maximum: return "max";
      default:
        piton_panic("bad OperandPattern");
    }
}

RegVal
patternValue(OperandPattern p, int which)
{
    switch (p) {
      case OperandPattern::Minimum:
        return 0;
      case OperandPattern::Random:
        // Fixed values with ~half the bits set (deterministic tests).
        return which == 0 ? 0x5DEECE66D1CE4E5BULL : 0xA3B1956C27D94F0EULL;
      case OperandPattern::Maximum:
        return ~RegVal{0};
      default:
        piton_panic("bad OperandPattern");
    }
}

const std::vector<EpiVariant> &
epiVariants()
{
    using C = isa::InstClass;
    static const std::vector<EpiVariant> variants = {
        {"nop", C::Nop, 1, false, 0},
        {"and", C::IntSimple, 1, true, 0},
        {"add", C::IntSimple, 1, true, 0},
        {"mulx", C::IntMul, 11, true, 0},
        {"sdivx", C::IntDiv, 72, true, 0},
        {"faddd", C::FpAddD, 22, true, 0},
        {"fmuld", C::FpMulD, 25, true, 0},
        {"fdivd", C::FpDivD, 79, true, 0},
        {"fadds", C::FpAddS, 22, true, 0},
        {"fmuls", C::FpMulS, 25, true, 0},
        {"fdivs", C::FpDivS, 50, true, 0},
        {"ldx", C::Load, 3, true, 0},
        {"stx (F)", C::Store, 10, true, 0},
        {"stx (NF)", C::Store, 10, true, 9},
        {"beq (T)", C::Branch, 3, false, 0},
        {"bne (NT)", C::Branch, 3, false, 0},
    };
    return variants;
}

const EpiVariant &
epiVariant(const std::string &label)
{
    for (const auto &v : epiVariants())
        if (v.label == label)
            return v;
    piton_fatal("unknown EPI variant '%s'", label.c_str());
}

Addr
epiDataBase(TileId tile)
{
    return kEpiRegionBase + static_cast<Addr>(tile) * kEpiRegionStride;
}

void
initEpiMemory(arch::MainMemory &memory, OperandPattern pattern, TileId tile)
{
    const Addr base = epiDataBase(tile);
    const RegVal value = patternValue(pattern, 0);
    for (Addr off = 0; off < 0x400; off += 8)
        memory.write64(base + off, value);
}

isa::Program
makeEpiProgram(const EpiVariant &variant, OperandPattern pattern,
               TileId tile)
{
    isa::ProgramBuilder b;
    const RegVal v1 = patternValue(pattern, 0);
    const RegVal v2 = patternValue(pattern, 1);
    const Addr base = epiDataBase(tile);

    if (variant.label == "nop") {
        b.label("loop");
        for (std::uint32_t i = 0; i < kUnroll; ++i)
            b.nop();
        b.ba("loop");
    } else if (variant.label == "and" || variant.label == "add"
               || variant.label == "mulx" || variant.label == "sdivx") {
        b.set(1, v1).set(2, v2);
        b.label("loop");
        for (std::uint32_t i = 0; i < kUnroll; ++i) {
            if (variant.label == "and")
                b.andr(3, 1, 2);
            else if (variant.label == "add")
                b.add(3, 1, 2);
            else if (variant.label == "mulx")
                b.mulx(3, 1, 2);
            else
                b.sdivx(3, 1, 2);
        }
        b.ba("loop");
    } else if (variant.cls == isa::InstClass::FpAddD
               || variant.cls == isa::InstClass::FpMulD
               || variant.cls == isa::InstClass::FpDivD
               || variant.cls == isa::InstClass::FpAddS
               || variant.cls == isa::InstClass::FpMulS
               || variant.cls == isa::InstClass::FpDivS) {
        b.setfd(1, std::bit_cast<double>(v1));
        b.setfd(2, std::bit_cast<double>(v2));
        b.label("loop");
        for (std::uint32_t i = 0; i < kUnroll; ++i) {
            if (variant.label == "faddd")
                b.faddd(3, 1, 2);
            else if (variant.label == "fmuld")
                b.fmuld(3, 1, 2);
            else if (variant.label == "fdivd")
                b.fdivd(3, 1, 2);
            else if (variant.label == "fadds")
                b.fadds(3, 1, 2);
            else if (variant.label == "fmuls")
                b.fmuls(3, 1, 2);
            else
                b.fdivs(3, 1, 2);
        }
        b.ba("loop");
    } else if (variant.label == "ldx") {
        // 20 distinct words in the tile's region: all L1 hits after the
        // first pass, no off-chip activity in steady state.
        b.set(1, base);
        b.label("loop");
        for (std::uint32_t i = 0; i < kUnroll; ++i)
            b.ldx(3, 1, static_cast<std::int64_t>(i) * 8);
        b.ba("loop");
    } else if (variant.label == "stx (F)" || variant.label == "stx (NF)") {
        // Stores hit the (write-back) L1.5; each tile uses its own L2
        // lines so coherence is never invoked.
        b.set(1, base + 0x200);
        b.set(2, v1);
        b.label("loop");
        for (std::uint32_t i = 0; i < kUnroll; ++i) {
            b.stx(2, 1, static_cast<std::int64_t>(i % 4) * 8);
            for (std::uint32_t n = 0; n < variant.padNops; ++n)
                b.nop();
        }
        b.ba("loop");
    } else if (variant.label == "beq (T)") {
        b.set(1, 0);
        b.cmpi(1, 0); // zero flag set: beq always taken
        b.label("loop");
        for (std::uint32_t i = 0; i < kUnroll; ++i) {
            // Appended, not "t" + ...: GCC 12 warns (-Wrestrict) on
            // the inlined insert a literal-first operator+ makes.
            std::string next = "t";
            next += std::to_string(i);
            b.beq(next);
            b.label(next);
        }
        b.ba("loop");
    } else if (variant.label == "bne (NT)") {
        b.set(1, 0);
        b.cmpi(1, 0); // zero flag set: bne never taken
        b.label("loop");
        for (std::uint32_t i = 0; i < kUnroll; ++i)
            b.bne("never");
        b.ba("loop");
        b.label("never");
        b.halt();
    } else {
        piton_fatal("no generator for EPI variant '%s'",
                    variant.label.c_str());
    }
    return b.build();
}

} // namespace piton::workloads
