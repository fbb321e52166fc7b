// Crash-consistent journal reading: the torn-final-line tolerance, the
// mid-file corruption rejection, and the flush-per-event sink mode that
// bounds what a crash can tear.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/check.h"
#include "obs/journal.h"

namespace mistral::obs {
namespace {

std::string three_lines() {
    std::ostringstream os;
    jsonl_sink sink(os);
    sink.record(event("interval", 100.0).num("rate", 42.5).num("power", 910.0));
    sink.record(event("decision", 220.0).boolean("invoked", true));
    sink.record(event("interval", 340.0).num("rate", 44.0).num("power", 905.0));
    return os.str();
}

TEST(JournalReader, ReadsBackEveryWellFormedLine) {
    std::istringstream in(three_lines());
    const journal_contents j = read_journal(in);
    EXPECT_EQ(j.torn_lines, 0u);
    ASSERT_EQ(j.lines.size(), 3u);
    EXPECT_EQ(j.lines[0].find("type")->as_text(), "interval");
    EXPECT_EQ(j.lines[1].find("type")->as_text(), "decision");
    EXPECT_EQ(j.lines[2].find("rate")->as_number(), 44.0);
}

TEST(JournalReader, ToleratesATornFinalLine) {
    std::string text = three_lines();
    // Tear the last line mid-JSON, as a crash between write and flush would.
    text.resize(text.size() - 15);
    std::istringstream in(text);
    const journal_contents j = read_journal(in);
    EXPECT_EQ(j.torn_lines, 1u);
    ASSERT_EQ(j.lines.size(), 2u);
    EXPECT_EQ(j.lines[1].find("type")->as_text(), "decision");
}

TEST(JournalReader, ToleratesATruncatedFinalLineWithoutNewline) {
    std::istringstream in("{\"type\":\"interval\",\"t\":100}\n{\"type\":\"dec");
    const journal_contents j = read_journal(in);
    EXPECT_EQ(j.torn_lines, 1u);
    ASSERT_EQ(j.lines.size(), 1u);
}

TEST(JournalReader, RejectsMidFileCorruption) {
    // A malformed line that is *not* the tail is silent data loss, not a
    // crash artifact — the reader must refuse rather than skip it.
    std::istringstream in(
        "{\"type\":\"interval\",\"t\":100}\n"
        "{\"type\":\"dec\n"
        "{\"type\":\"interval\",\"t\":340}\n");
    EXPECT_THROW((void)read_journal(in), invariant_error);
}

// A run of open brackets is a malformed line like any other: counted as
// torn at the tail, refused mid-file, never a stack overflow.
TEST(JournalReader, DeeplyNestedLineIsMalformedNotACrash) {
    const std::string good = "{\"type\":\"interval\",\"t\":100}\n";
    const std::string deep(100000, '[');
    std::istringstream tail(good + deep);
    const journal_contents j = read_journal(tail);
    EXPECT_EQ(j.torn_lines, 1u);
    EXPECT_EQ(j.lines.size(), 1u);
    std::istringstream mid(good + deep + "\n" + good);
    EXPECT_THROW((void)read_journal(mid), invariant_error);
}

TEST(JournalReader, EmptyJournalIsEmptyNotTorn) {
    std::istringstream in("");
    const journal_contents j = read_journal(in);
    EXPECT_EQ(j.lines.size(), 0u);
    EXPECT_EQ(j.torn_lines, 0u);
}

TEST(JournalReader, ReadJournalFileThrowsOnMissingPath) {
    EXPECT_THROW((void)read_journal_file("/nonexistent/journal.jsonl"),
                 invariant_error);
}

TEST(JournalReader, FlushPerEventIsReadableBeforeTheSinkCloses) {
    const std::string path =
        ::testing::TempDir() + "flush_per_event_journal.jsonl";
    std::remove(path.c_str());
    {
        jsonl_file_sink sink(path, nullptr, /*flush_per_event=*/true);
        sink.record(event("interval", 100.0).num("rate", 42.5));
        sink.record(event("interval", 220.0).num("rate", 44.0));
        // The sink is still open — a crash here must not lose these lines.
        const journal_contents j = read_journal_file(path);
        EXPECT_EQ(j.torn_lines, 0u);
        EXPECT_EQ(j.lines.size(), 2u);
    }
    std::remove(path.c_str());
}

}  // namespace
}  // namespace mistral::obs
