// Tiny CSV writer used by the benchmark harness to persist the series that
// regenerate the paper's tables and figures (one file per artifact under
// results/).
#pragma once

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace xs::util {

class CsvWriter {
public:
    // Opens `path` for writing and emits the header row immediately.
    CsvWriter(const std::string& path, const std::vector<std::string>& header);

    // Append one row; each cell is formatted with operator<<.
    template <typename... Cells>
    void row(const Cells&... cells) {
        std::ostringstream line;
        append_cells(line, cells...);
        out_ << line.str() << '\n';
    }

    void flush() { out_.flush(); }
    bool ok() const { return out_.good(); }

private:
    template <typename First, typename... Rest>
    static void append_cells(std::ostringstream& line, const First& first,
                             const Rest&... rest) {
        line << first;
        ((line << ',' << rest), ...);
    }

    std::ofstream out_;
};

// Render a simple aligned text table to stdout (paper-style rows).
class TextTable {
public:
    explicit TextTable(std::vector<std::string> header);

    // Pads a short row with empty cells; throws std::invalid_argument on a
    // row with more cells than the header.
    void add_row(std::vector<std::string> cells);
    std::string str() const;

private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

// Format a double with fixed precision (helper for table cells).
std::string fmt(double value, int precision = 2);

// Shortest %g formatting — compact ids/labels like "0.8" or "1e-05".
std::string fmt_g(double value);

}  // namespace xs::util
