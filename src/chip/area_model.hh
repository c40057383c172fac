/**
 * @file
 * Place-and-route area database (Fig. 8).
 *
 * The paper publishes, as its "most detailed area breakdown of an open
 * source manycore", the standard-cell + SRAM-macro areas of every major
 * block at three levels of hierarchy: chip (35.97552 mm^2), tile
 * (1.17459 mm^2), and core (0.55205 mm^2).  This module encodes that
 * database and offers lookups, absolute-area conversion, and
 * consistency checks (percentages at each level sum to ~100%).
 */

#ifndef PITON_CHIP_AREA_MODEL_HH
#define PITON_CHIP_AREA_MODEL_HH

#include <string>
#include <vector>

namespace piton::chip
{

struct AreaBlock
{
    std::string name;
    double percent; ///< of the level's floorplanned area
};

struct AreaLevel
{
    std::string name;
    double totalMm2;
    std::vector<AreaBlock> blocks;

    /** Sum of all block percentages (should be ~100). */
    double percentSum() const;
    /** Absolute area of one named block; fatal if unknown. */
    double blockAreaMm2(const std::string &block) const;
    /** Percentage of one named block; fatal if unknown. */
    double blockPercent(const std::string &block) const;
};

class AreaModel
{
  public:
    AreaModel();

    const AreaLevel &chip() const { return chip_; }
    const AreaLevel &tile() const { return tile_; }
    const AreaLevel &core() const { return core_; }

    /**
     * Combined fraction of tile area taken by the three NoC routers —
     * the context the paper gives for its "NoC energy is small" claim.
     */
    double nocRouterTileFraction() const;

  private:
    AreaLevel chip_;
    AreaLevel tile_;
    AreaLevel core_;
};

} // namespace piton::chip

#endif // PITON_CHIP_AREA_MODEL_HH
