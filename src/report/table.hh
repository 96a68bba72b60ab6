/**
 * @file
 * Plain-text rendering of experiment results: aligned tables and the
 * deviation-histogram layout used by every figure reproduction.
 */

#ifndef CAMS_REPORT_TABLE_HH
#define CAMS_REPORT_TABLE_HH

#include <string>
#include <vector>

#include "report/deviation.hh"

namespace cams
{

/** Builds fixed-width text tables row by row. */
class TextTable
{
  public:
    /** Sets the column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /** Appends one row; must match the header count. */
    void addRow(std::vector<std::string> cells);

    /** Renders with aligned columns. */
    std::string render() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/**
 * Renders the figure layout: one row per series, columns for the
 * percentage of loops at deviation 0, 1, 2, 3 and >= 4 plus the
 * cumulative <=1 column the paper quotes for the grid machine.
 */
std::string renderDeviationFigure(
    const std::string &title,
    const std::vector<DeviationSeries> &series);

} // namespace cams

#endif // CAMS_REPORT_TABLE_HH
