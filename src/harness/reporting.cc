#include "harness/reporting.hh"

#include <cstdio>

#include "common/logging.hh"
#include "common/math_utils.hh"

namespace schedtask
{

SeriesMatrix::SeriesMatrix(std::vector<std::string> row_names,
                           std::vector<std::string> col_names)
    : rows_(std::move(row_names)), cols_(std::move(col_names))
{
    values_.assign(rows_.size() * cols_.size(), 0.0);
}

std::size_t
SeriesMatrix::rowIndex(const std::string &row) const
{
    for (std::size_t i = 0; i < rows_.size(); ++i)
        if (rows_[i] == row)
            return i;
    SCHEDTASK_PANIC("unknown row: ", row);
}

std::size_t
SeriesMatrix::colIndex(const std::string &col) const
{
    for (std::size_t i = 0; i < cols_.size(); ++i)
        if (cols_[i] == col)
            return i;
    SCHEDTASK_PANIC("unknown column: ", col);
}

void
SeriesMatrix::set(const std::string &row, const std::string &col,
                  double value)
{
    values_[rowIndex(row) * cols_.size() + colIndex(col)] = value;
}

double
SeriesMatrix::get(const std::string &row, const std::string &col) const
{
    return values_[rowIndex(row) * cols_.size() + colIndex(col)];
}

std::vector<double>
SeriesMatrix::column(const std::string &col) const
{
    const std::size_t c = colIndex(col);
    std::vector<double> out;
    out.reserve(rows_.size());
    for (std::size_t r = 0; r < rows_.size(); ++r)
        out.push_back(values_[r * cols_.size() + c]);
    return out;
}

std::string
SeriesMatrix::renderWithGmean(const std::string &corner,
                              int decimals) const
{
    std::vector<std::string> headers = {corner};
    headers.insert(headers.end(), cols_.begin(), cols_.end());
    TextTable table(headers);
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        std::vector<std::string> cells = {rows_[r]};
        for (std::size_t c = 0; c < cols_.size(); ++c) {
            cells.push_back(TextTable::pct(
                values_[r * cols_.size() + c], decimals));
        }
        table.addRow(std::move(cells));
    }
    std::vector<std::string> gmean_cells = {"gmean"};
    for (const std::string &col : cols_) {
        gmean_cells.push_back(TextTable::pct(
            geometricMeanPercent(column(col)), decimals));
    }
    table.addRow(std::move(gmean_cells));
    return table.render();
}

std::string
SeriesMatrix::render(const std::string &corner, int decimals) const
{
    std::vector<std::string> headers = {corner};
    headers.insert(headers.end(), cols_.begin(), cols_.end());
    TextTable table(headers);
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        std::vector<std::string> cells = {rows_[r]};
        for (std::size_t c = 0; c < cols_.size(); ++c) {
            cells.push_back(TextTable::num(
                values_[r * cols_.size() + c], decimals));
        }
        table.addRow(std::move(cells));
    }
    return table.render();
}

void
printHeader(const std::string &title, std::FILE *out)
{
    std::fprintf(out, "\n==== %s ====\n\n", title.c_str());
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &name : names)
        out += out.empty() ? name : ", " + name;
    return out;
}

} // namespace schedtask
