/**
 * @file
 * Reporting helpers shared by the figure/table reproduction
 * binaries: benchmark x technique matrices with geometric-mean
 * columns, formatted through TextTable.
 */

#ifndef SCHEDTASK_HARNESS_REPORTING_HH
#define SCHEDTASK_HARNESS_REPORTING_HH

#include <cstdio>
#include <string>
#include <vector>

#include "stats/table.hh"

namespace schedtask
{

/**
 * A benchmark x technique matrix of percentage values with a
 * geometric-mean aggregate per technique (the layout of Figures
 * 7-10).
 */
class SeriesMatrix
{
  public:
    SeriesMatrix(std::vector<std::string> row_names,
                 std::vector<std::string> col_names);

    /** Set one value (percent). */
    void set(const std::string &row, const std::string &col,
             double value);

    /** Value lookup (0 when unset). */
    double get(const std::string &row, const std::string &col) const;

    /** All values of one column, row order. */
    std::vector<double> column(const std::string &col) const;

    /**
     * Render with one row per row-name and a final gmean row
     * computed with the paper's geometric-mean-of-ratios
     * convention. Values are printed as signed percents.
     */
    std::string renderWithGmean(const std::string &corner,
                                int decimals = 1) const;

    /** Render without the gmean row (absolute values). */
    std::string render(const std::string &corner,
                       int decimals = 1) const;

  private:
    std::size_t rowIndex(const std::string &row) const;
    std::size_t colIndex(const std::string &col) const;

    std::vector<std::string> rows_;
    std::vector<std::string> cols_;
    std::vector<double> values_; // rows x cols
};

/** Print a section header in a uniform style. */
void printHeader(const std::string &title, std::FILE *out = stdout);

/** "a, b, c": the valid names a usage error lists. */
std::string joinNames(const std::vector<std::string> &names);

} // namespace schedtask

#endif // SCHEDTASK_HARNESS_REPORTING_HH
