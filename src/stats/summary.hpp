/**
 * @file
 * Text-table formatting for the run report's text form and the
 * examples.
 */

#ifndef THEMIS_STATS_SUMMARY_HPP
#define THEMIS_STATS_SUMMARY_HPP

#include <string>
#include <vector>

namespace themis::stats {

/** Column-aligned monospace table for terminal reports. */
class TextTable
{
  public:
    /** @param headers column titles. */
    explicit TextTable(std::vector<std::string> headers);

    /** Append one row; must match the header arity. */
    void addRow(const std::vector<std::string>& cells);

    /** Render with padding and a header underline. */
    std::string render() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace themis::stats

#endif // THEMIS_STATS_SUMMARY_HPP
