#include "util/csv.h"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <stdexcept>

namespace xs::util {

CsvWriter::CsvWriter(const std::string& path, const std::vector<std::string>& header)
    : out_(path) {
    for (std::size_t i = 0; i < header.size(); ++i) {
        if (i) out_ << ',';
        out_ << header[i];
    }
    out_ << '\n';
}

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> cells) {
    if (cells.size() > header_.size())
        throw std::invalid_argument(
            "TextTable::add_row: " + std::to_string(cells.size()) +
            " cells for " + std::to_string(header_.size()) + " columns");
    cells.resize(header_.size());
    rows_.push_back(std::move(cells));
}

namespace {

// Display width of a UTF-8 cell: count non-continuation bytes so glyphs
// like '±' don't skew the column alignment.
std::size_t display_width(const std::string& s) {
    std::size_t n = 0;
    for (const unsigned char ch : s)
        if ((ch & 0xC0) != 0x80) ++n;
    return n;
}

}  // namespace

std::string TextTable::str() const {
    std::vector<std::size_t> width(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c)
        width[c] = display_width(header_[c]);
    for (const auto& row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], display_width(row[c]));

    // Every line is "|" plus, per column, its width + 2 padding + "|".
    std::ostringstream os;
    auto emit_row = [&](const std::vector<std::string>& row) {
        os << '|';
        for (std::size_t c = 0; c < header_.size(); ++c)
            os << ' ' << row[c]
               << std::string(width[c] - display_width(row[c]), ' ') << " |";
        os << '\n';
    };
    emit_row(header_);
    os << '|';
    for (std::size_t c = 0; c < header_.size(); ++c)
        os << std::string(width[c] + 2, '-') << '|';
    os << '\n';
    for (const auto& row : rows_) emit_row(row);
    return os.str();
}

std::string fmt(double value, int precision) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
}

std::string fmt_g(double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", value);
    return buf;
}

}  // namespace xs::util
