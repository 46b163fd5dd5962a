#include "xml/sax.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace xupdate::xml {
namespace {

// Records events as strings for easy assertions.
class Recorder : public SaxHandler {
 public:
  Status StartElement(std::string_view name,
                      std::span<const SaxAttribute> attrs) override {
    std::string e = "<";
    e += name;
    for (const auto& a : attrs) e += " " + a.name + "=" + a.value;
    events.push_back(e);
    return Status::OK();
  }
  Status EndElement(std::string_view name) override {
    events.push_back("</" + std::string(name));
    return Status::OK();
  }
  Status Text(std::string_view text) override {
    events.push_back("T:" + std::string(text));
    return Status::OK();
  }
  std::vector<std::string> events;
};

TEST(SaxTest, SimpleDocument) {
  Recorder rec;
  ASSERT_TRUE(ParseSax("<a><b x=\"1\">hi</b></a>", &rec).ok());
  std::vector<std::string> expected = {"<a", "<b x=1", "T:hi", "</b", "</a"};
  EXPECT_EQ(rec.events, expected);
}

TEST(SaxTest, SelfClosingElement) {
  Recorder rec;
  ASSERT_TRUE(ParseSax("<a><b/></a>", &rec).ok());
  std::vector<std::string> expected = {"<a", "<b", "</b", "</a"};
  EXPECT_EQ(rec.events, expected);
}

TEST(SaxTest, SkipsCommentsPIsAndDoctype) {
  Recorder rec;
  ASSERT_TRUE(ParseSax("<?xml version=\"1.0\"?><!DOCTYPE a>"
                       "<a><!-- note -->x</a>",
                       &rec)
                  .ok());
  std::vector<std::string> expected = {"<a", "T:x", "</a"};
  EXPECT_EQ(rec.events, expected);
}

TEST(SaxTest, CdataIsLiteralText) {
  Recorder rec;
  ASSERT_TRUE(ParseSax("<a><![CDATA[<raw> & stuff]]></a>", &rec).ok());
  std::vector<std::string> expected = {"<a", "T:<raw> & stuff", "</a"};
  EXPECT_EQ(rec.events, expected);
}

TEST(SaxTest, EntitiesUnescaped) {
  Recorder rec;
  ASSERT_TRUE(ParseSax("<a p=\"&lt;v&gt;\">&amp;x</a>", &rec).ok());
  std::vector<std::string> expected = {"<a p=<v>", "T:&x", "</a"};
  EXPECT_EQ(rec.events, expected);
}

TEST(SaxTest, WhitespaceTextDroppedByDefault) {
  Recorder rec;
  ASSERT_TRUE(ParseSax("<a>\n  <b/>\n</a>", &rec).ok());
  std::vector<std::string> expected = {"<a", "<b", "</b", "</a"};
  EXPECT_EQ(rec.events, expected);
}

TEST(SaxTest, WhitespaceTextKeptOnRequest) {
  Recorder rec;
  SaxOptions opts;
  opts.keep_whitespace_text = true;
  ASSERT_TRUE(ParseSax("<a> <b/></a>", &rec, opts).ok());
  std::vector<std::string> expected = {"<a", "T: ", "<b", "</b", "</a"};
  EXPECT_EQ(rec.events, expected);
}

TEST(SaxTest, SingleQuotedAttributes) {
  Recorder rec;
  ASSERT_TRUE(ParseSax("<a x='q\"q'/>", &rec).ok());
  EXPECT_EQ(rec.events[0], "<a x=q\"q");
}

TEST(SaxTest, Errors) {
  Recorder rec;
  EXPECT_FALSE(ParseSax("", &rec).ok());
  EXPECT_FALSE(ParseSax("<a>", &rec).ok());
  EXPECT_FALSE(ParseSax("<a></b>", &rec).ok());
  EXPECT_FALSE(ParseSax("<a></a><b></b>", &rec).ok());
  EXPECT_FALSE(ParseSax("text only", &rec).ok());
  EXPECT_FALSE(ParseSax("<a x=1></a>", &rec).ok());
  EXPECT_FALSE(ParseSax("<a x=\"1></a>", &rec).ok());
  EXPECT_FALSE(ParseSax("<a><!-- unterminated</a>", &rec).ok());
  EXPECT_FALSE(ParseSax("< a></a>", &rec).ok());
}

TEST(SaxTest, ErrorsIncludeLineNumbers) {
  Recorder rec;
  Status s = ParseSax("<a>\n\n</b>", &rec);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("line 3"), std::string::npos);
}

TEST(SaxWriterTest, WritesNestedDocument) {
  SaxWriter w;
  std::vector<SaxAttribute> attrs = {{"x", "a<b"}};
  ASSERT_TRUE(w.StartElement("r", attrs).ok());
  ASSERT_TRUE(w.StartElement("c", {}).ok());
  ASSERT_TRUE(w.Text("hi & bye").ok());
  ASSERT_TRUE(w.EndElement("c").ok());
  ASSERT_TRUE(w.StartElement("d", {}).ok());
  ASSERT_TRUE(w.EndElement("d").ok());
  ASSERT_TRUE(w.EndElement("r").ok());
  EXPECT_EQ(w.str(), "<r x=\"a&lt;b\"><c>hi &amp; bye</c><d/></r>");
}

TEST(SaxWriterTest, RoundTripThroughParser) {
  const std::string input = "<r a=\"1\"><b>text</b><c/><d>x<e/>y</d></r>";
  SaxWriter w;
  ASSERT_TRUE(ParseSax(input, &w).ok());
  EXPECT_EQ(w.str(), input);
}

}  // namespace
}  // namespace xupdate::xml
