// A uniform interface over the payload encodings the paper compares:
//
//   raw           host-order binary         (lower bound; "local binding")
//   xdr           RFC 4506 big-endian       (the proposed XDR binding)
//   soap-xml      one <item> element per    (SOAP Section-5 array style)
//                 value, decimal text
//   soap-base64   xsd:base64Binary blob of  (SOAP's "default BASE64
//                 IEEE bytes inside XML      encoding for XSD data types")
//
// bench_encoding (EXP-ENC) measures all four on the same double arrays;
// the transport bindings reuse them for their payloads.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/byte_buffer.hpp"
#include "util/error.hpp"

namespace h2::xml {
class PullParser;
}

namespace h2::enc {

/// Encodes/decodes a flat array of doubles — the paper's canonical
/// scientific payload ("plain arrays of numbers", Section 5).
class Codec {
 public:
  virtual ~Codec() = default;

  /// Stable identifier ("raw", "xdr", "soap-xml", "soap-base64").
  virtual const char* name() const = 0;

  /// Serializes `values` into wire bytes.
  virtual ByteBuffer encode(std::span<const double> values) const = 0;

  /// Parses wire bytes produced by encode(). Never trusts lengths blindly.
  virtual Result<std::vector<double>> decode(const ByteBuffer& wire) const = 0;

  /// Exact number of wire bytes encode() would produce for n values
  /// (soap-xml is value-dependent, so that one returns an upper bound).
  virtual std::size_t wire_size(std::size_t n) const = 0;
};

/// Little-endian doubles behind a u32 count — what a same-address-space
/// binding effectively pays (plus one memcpy).
std::unique_ptr<Codec> make_raw_codec();

/// XDR: big-endian doubles behind a u32 count, per RFC 4506.
std::unique_ptr<Codec> make_xdr_codec();

/// SOAP-style XML array: <array><item>1.5</item>...</array> with decimal
/// text items, parsed by the real XML parser on decode.
std::unique_ptr<Codec> make_soap_xml_codec();

/// SOAP base64Binary: IEEE-754 LE bytes, base64ed, wrapped in one XML
/// element — the cheaper of the two common SOAP choices, still paying the
/// 4/3 expansion plus XML framing.
std::unique_ptr<Codec> make_soap_base64_codec();

/// All four codecs in comparison order.
std::vector<std::unique_ptr<Codec>> all_codecs();

// ---- SOAP Section-5 double-array items -----------------------------------------
// The one writer and reader of `<item>` runs, shared by the soap-xml codec
// and the SOAP envelope (soap/envelope.cpp).

/// Most bytes one item takes: "<item>" + "</item>" around the longest
/// shortest-form double ("-2.2250738585072014e-308", 24 chars).
inline constexpr std::size_t kMaxSoapItemBytes = 13 + 24;

/// Appends `<item>V</item>` per value, V in shortest round-trip form.
/// Resizes `out` once, writes through a raw pointer, then trims.
void append_soap_items(std::string& out, std::span<const double> values);

/// Reads the children of the element `p` has just returned as
/// kStartElement, through its end tag, appending each `item` child's
/// trimmed text as a double; other children are skipped. A bare
/// `<item>TEXT</item>` is taken by PullParser::simple_element; anything
/// else (prefixes, attributes, entities, CDATA, comments, bad markup) goes
/// through the token loop and `scratch`.
Status read_soap_items(xml::PullParser& p, std::string& scratch, std::vector<double>& out);

}  // namespace h2::enc
