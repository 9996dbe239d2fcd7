#include "encoding/codec.hpp"

#include <charconv>
#include <cstring>

#include "encoding/base64.hpp"
#include "encoding/xdr.hpp"
#include "util/strings.hpp"
#include "xml/pull_parser.hpp"

namespace h2::enc {

namespace {

class RawCodec final : public Codec {
 public:
  const char* name() const override { return "raw"; }

  ByteBuffer encode(std::span<const double> values) const override {
    ByteBuffer out;
    out.reserve(4 + values.size() * 8);
    out.write_u32_le(static_cast<std::uint32_t>(values.size()));
    for (double v : values) out.write_f64_le(v);
    return out;
  }

  Result<std::vector<double>> decode(const ByteBuffer& wire) const override {
    ByteBuffer buf(std::vector<std::uint8_t>(wire.bytes().begin(), wire.bytes().end()));
    auto count = buf.read_u32_le();
    if (!count.ok()) return count.error();
    if (static_cast<std::size_t>(*count) * 8 != buf.remaining()) {
      return err::parse("raw: count does not match payload size");
    }
    std::vector<double> out;
    out.reserve(*count);
    for (std::uint32_t i = 0; i < *count; ++i) {
      auto v = buf.read_f64_le();
      if (!v.ok()) return v.error();
      out.push_back(*v);
    }
    return out;
  }

  std::size_t wire_size(std::size_t n) const override { return 4 + n * 8; }
};

class XdrCodec final : public Codec {
 public:
  const char* name() const override { return "xdr"; }

  ByteBuffer encode(std::span<const double> values) const override {
    XdrWriter w;
    w.put_f64_array(values);
    return w.take();
  }

  Result<std::vector<double>> decode(const ByteBuffer& wire) const override {
    XdrReader r(wire.bytes());
    auto values = r.get_f64_array();
    if (!values.ok()) return values.error();
    if (!r.exhausted()) return err::parse("xdr: trailing bytes after array");
    return values;
  }

  std::size_t wire_size(std::size_t n) const override { return 4 + n * 8; }
};

class SoapXmlCodec final : public Codec {
 public:
  const char* name() const override { return "soap-xml"; }

  ByteBuffer encode(std::span<const double> values) const override {
    // Hand-rolled emission (no DOM) — this is the fast path a real SOAP
    // stack would use, so the measured cost is the format's, not a DOM's.
    std::string out;
    char buf[32];
    out += "<array xsi:type=\"SOAP-ENC:Array\" SOAP-ENC:arrayType=\"xsd:double[";
    auto [cend, cec] = std::to_chars(buf, buf + sizeof buf, values.size());
    out.append(buf, static_cast<std::size_t>(cend - buf));
    out += "]\">";
    append_soap_items(out, values);
    out += "</array>";
    return ByteBuffer(out);
  }

  Result<std::vector<double>> decode(const ByteBuffer& wire) const override {
    xml::PullParser p(wire.as_string_view());
    auto root = p.next();
    if (!root.ok()) return root.error().context("soap-xml array");
    std::vector<double> out;
    if (auto at = p.raw_attr("SOAP-ENC:arrayType")) {
      auto lb = at->find('[');
      auto rb = at->find(']');
      if (lb != std::string_view::npos && rb != std::string_view::npos && rb > lb + 1) {
        auto n = str::parse_u64(at->substr(lb + 1, rb - lb - 1));
        if (n.ok()) out.reserve(std::min<std::uint64_t>(*n, 1 << 22));
      }
    }
    std::string scratch;
    if (auto st = read_soap_items(p, scratch, out); !st.ok()) {
      return st.error().context("soap-xml array");
    }
    auto tail = p.next();
    if (!tail.ok()) return tail.error().context("soap-xml array");
    return out;
  }

  std::size_t wire_size(std::size_t n) const override {
    // Upper bound: framing + per-item tags + up to 24 chars of decimal text.
    return 80 + n * kMaxSoapItemBytes;
  }
};

class SoapBase64Codec final : public Codec {
 public:
  const char* name() const override { return "soap-base64"; }

  ByteBuffer encode(std::span<const double> values) const override {
    ByteBuffer raw;
    raw.reserve(values.size() * 8);
    for (double v : values) raw.write_f64_le(v);
    std::string out;
    out.reserve(96 + base64_encoded_size(raw.size()));
    out += "<data xsi:type=\"xsd:base64Binary\" count=\"";
    out += std::to_string(values.size());
    out += "\">";
    base64_encode_to(out, raw.bytes());
    out += "</data>";
    return ByteBuffer(out);
  }

  Result<std::vector<double>> decode(const ByteBuffer& wire) const override {
    xml::PullParser p(wire.as_string_view());
    auto root = p.next();
    if (!root.ok()) return root.error().context("soap-base64");
    std::string scratch;
    auto count_attr = p.attr("count", scratch);
    if (!count_attr.ok()) return count_attr.error().context("soap-base64");
    if (!*count_attr) return err::parse("soap-base64: missing count attribute");
    auto count = str::parse_u64(**count_attr);
    if (!count.ok()) return count.error();
    auto text = p.inner_text(scratch);
    if (!text.ok()) return text.error().context("soap-base64");
    auto bytes = base64_decode(str::trim(*text));
    if (!bytes.ok()) return bytes.error();
    auto tail = p.next();
    if (!tail.ok()) return tail.error().context("soap-base64");
    if (bytes->size() != *count * 8) {
      return err::parse("soap-base64: payload size does not match count");
    }
    ByteBuffer buf(std::move(*bytes));
    std::vector<double> out;
    out.reserve(*count);
    for (std::uint64_t i = 0; i < *count; ++i) {
      auto v = buf.read_f64_le();
      if (!v.ok()) return v.error();
      out.push_back(*v);
    }
    return out;
  }

  std::size_t wire_size(std::size_t n) const override {
    return 60 + base64_encoded_size(n * 8);
  }
};

}  // namespace

std::unique_ptr<Codec> make_raw_codec() { return std::make_unique<RawCodec>(); }
std::unique_ptr<Codec> make_xdr_codec() { return std::make_unique<XdrCodec>(); }
std::unique_ptr<Codec> make_soap_xml_codec() { return std::make_unique<SoapXmlCodec>(); }
std::unique_ptr<Codec> make_soap_base64_codec() {
  return std::make_unique<SoapBase64Codec>();
}

void append_soap_items(std::string& out, std::span<const double> values) {
  std::size_t start = out.size();
  out.resize(start + values.size() * kMaxSoapItemBytes);
  char* at = out.data() + start;
  char* const end = out.data() + out.size();
  for (double v : values) {
    std::memcpy(at, "<item>", 6);
    at = std::to_chars(at + 6, end, v).ptr;
    std::memcpy(at, "</item>", 7);
    at += 7;
  }
  out.resize(static_cast<std::size_t>(at - out.data()));
}

Status read_soap_items(xml::PullParser& p, std::string& scratch, std::vector<double>& out) {
  auto add = [&](std::string_view text) -> Status {
    auto v = str::parse_double(str::trim(text));
    if (!v.ok()) return v.error().context("soap array item");
    out.push_back(*v);
    return Status::success();
  };
  int base = p.depth();
  while (true) {
    // simple_element's TEXT is exactly what inner_text() would return.
    if (auto text = p.simple_element("item")) {
      if (auto st = add(*text); !st.ok()) return st;
      continue;
    }
    auto t = p.next();
    if (!t.ok()) return t.error();
    if (*t == xml::Token::kEndElement && p.depth() == base - 1) return Status::success();
    if (*t != xml::Token::kStartElement) continue;
    if (p.local_name() != "item") {
      auto skipped = p.skip_element();
      if (!skipped.ok()) return skipped.error();
      continue;
    }
    auto text = p.inner_text(scratch);
    if (!text.ok()) return text.error();
    if (auto st = add(*text); !st.ok()) return st;
  }
}

std::vector<std::unique_ptr<Codec>> all_codecs() {
  std::vector<std::unique_ptr<Codec>> out;
  out.push_back(make_raw_codec());
  out.push_back(make_xdr_codec());
  out.push_back(make_soap_base64_codec());
  out.push_back(make_soap_xml_codec());
  return out;
}

}  // namespace h2::enc
