//! A recursive-descent parser for the XML subset used by P3P and APPEL.

use crate::error::{ParseError, Position};
use crate::escape::unescape;
use crate::node::{Attribute, Document, Element, Node, QName};

/// Parse a complete document (optional declaration/DOCTYPE, one root
/// element, trailing whitespace/comments).
pub fn parse_document(input: &str) -> Result<Document, ParseError> {
    let mut p = Parser::new(input);
    p.skip_bom();
    let had_declaration = p.skip_declaration()?;
    p.skip_misc()?;
    let root = p.parse_element()?;
    p.skip_misc()?;
    if !p.at_end() {
        return Err(p.err("unexpected content after root element"));
    }
    Ok(Document {
        had_declaration,
        root,
    })
}

/// Parse a single element from text (no declaration allowed).
pub fn parse_element(input: &str) -> Result<Element, ParseError> {
    let mut p = Parser::new(input);
    p.skip_bom();
    p.skip_misc()?;
    let elem = p.parse_element()?;
    p.skip_misc()?;
    if !p.at_end() {
        return Err(p.err("unexpected content after element"));
    }
    Ok(elem)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn position(&self) -> Position {
        let consumed = &self.input[..self.pos];
        let line = consumed.bytes().filter(|&b| b == b'\n').count() as u32 + 1;
        let column = match consumed.rfind('\n') {
            Some(nl) => (consumed.len() - nl) as u32,
            None => consumed.len() as u32 + 1,
        };
        Position { line, column }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.position(), msg)
    }

    /// Expand the references in `raw`, which ends at the current
    /// position. The position is computed only for an error: it counts
    /// lines from the start of the input, so computing it for every
    /// attribute and text node made each parse quadratic.
    fn unescape<'s>(&self, raw: &'s str) -> Result<std::borrow::Cow<'s, str>, ParseError> {
        unescape(raw, Position::START).map_err(|e| ParseError::new(self.position(), e.message))
    }

    fn skip_bom(&mut self) {
        if self.rest().starts_with('\u{feff}') {
            self.pos += '\u{feff}'.len_utf8();
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), ParseError> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{token}`")))
        }
    }

    /// Skip `<?xml ... ?>`; returns whether a declaration was present.
    fn skip_declaration(&mut self) -> Result<bool, ParseError> {
        self.skip_ws();
        if self.rest().starts_with("<?xml") {
            let close = self
                .rest()
                .find("?>")
                .ok_or_else(|| self.err("unterminated XML declaration"))?;
            self.pos += close + 2;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Skip whitespace, comments, PIs, and a DOCTYPE between markup.
    fn skip_misc(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.rest().starts_with("<!--") {
                self.skip_comment()?;
            } else if self.rest().starts_with("<?") {
                let close = self
                    .rest()
                    .find("?>")
                    .ok_or_else(|| self.err("unterminated processing instruction"))?;
                self.pos += close + 2;
            } else if self.rest().starts_with("<!DOCTYPE") {
                self.skip_doctype()?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_comment(&mut self) -> Result<String, ParseError> {
        debug_assert!(self.rest().starts_with("<!--"));
        self.pos += 4;
        let close = self
            .rest()
            .find("-->")
            .ok_or_else(|| self.err("unterminated comment"))?;
        let body = self.rest()[..close].to_string();
        self.pos += close + 3;
        Ok(body)
    }

    /// Skip a DOCTYPE, tolerating one level of `[...]` internal subset.
    fn skip_doctype(&mut self) -> Result<(), ParseError> {
        self.pos += "<!DOCTYPE".len();
        let mut depth = 0usize;
        while let Some(b) = self.peek() {
            self.pos += 1;
            match b {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => return Ok(()),
                _ => {}
            }
        }
        Err(self.err("unterminated DOCTYPE"))
    }

    fn parse_name(&mut self) -> Result<QName, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let ok =
                b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') || b >= 0x80;
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        let raw = &self.input[start..self.pos];
        if raw.starts_with(':') || raw.ends_with(':') || raw.matches(':').count() > 1 {
            return Err(self.err(format!("malformed qualified name `{raw}`")));
        }
        if raw.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            return Err(self.err(format!("name `{raw}` may not start with a digit")));
        }
        Ok(QName::parse(raw))
    }

    fn parse_attribute(&mut self) -> Result<Attribute, ParseError> {
        let name = self.parse_name()?;
        self.skip_ws();
        self.expect("=")?;
        self.skip_ws();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        self.pos += 1;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == quote {
                break;
            }
            if b == b'<' {
                return Err(self.err("`<` not allowed in attribute value"));
            }
            self.pos += 1;
        }
        if self.at_end() {
            return Err(self.err("unterminated attribute value"));
        }
        let raw = &self.input[start..self.pos];
        self.pos += 1; // closing quote
        let value = self.unescape(raw)?.into_owned();
        Ok(Attribute { name, value })
    }

    fn parse_element(&mut self) -> Result<Element, ParseError> {
        self.expect("<")?;
        let name = self.parse_name()?;
        let mut elem = Element::new(name);
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(">")?;
                    return Ok(elem);
                }
                Some(b'>') => {
                    self.pos += 1;
                    self.parse_content(&mut elem)?;
                    return Ok(elem);
                }
                Some(_) => {
                    let attr = self.parse_attribute()?;
                    if elem.attributes.iter().any(|a| a.name == attr.name) {
                        return Err(self.err(format!("duplicate attribute `{}`", attr.name)));
                    }
                    elem.attributes.push(attr);
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }
    }

    /// Parse element content up to and including the matching end tag.
    fn parse_content(&mut self, elem: &mut Element) -> Result<(), ParseError> {
        loop {
            if self.rest().starts_with("</") {
                self.pos += 2;
                let name = self.parse_name()?;
                if name != elem.name {
                    return Err(self.err(format!(
                        "mismatched end tag: expected `</{}>`, found `</{}>`",
                        elem.name, name
                    )));
                }
                self.skip_ws();
                self.expect(">")?;
                return Ok(());
            } else if self.rest().starts_with("<!--") {
                let body = self.skip_comment()?;
                elem.children.push(Node::Comment(body));
            } else if self.rest().starts_with("<![CDATA[") {
                self.pos += "<![CDATA[".len();
                let close = self
                    .rest()
                    .find("]]>")
                    .ok_or_else(|| self.err("unterminated CDATA section"))?;
                let text = self.rest()[..close].to_string();
                self.pos += close + 3;
                push_text(elem, text);
            } else if self.rest().starts_with("<?") {
                let close = self
                    .rest()
                    .find("?>")
                    .ok_or_else(|| self.err("unterminated processing instruction"))?;
                self.pos += close + 2;
            } else if self.peek() == Some(b'<') {
                let child = self.parse_element()?;
                elem.children.push(Node::Element(child));
            } else if self.at_end() {
                return Err(self.err(format!("unterminated element `{}`", elem.name)));
            } else {
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b == b'<' {
                        break;
                    }
                    self.pos += 1;
                }
                let raw = &self.input[start..self.pos];
                let text = self.unescape(raw)?.into_owned();
                if !text.trim().is_empty() {
                    push_text(elem, text);
                }
            }
        }
    }
}

/// Append text, merging with a preceding text node if present.
fn push_text(elem: &mut Element, text: String) {
    if let Some(Node::Text(prev)) = elem.children.last_mut() {
        prev.push_str(&text);
    } else {
        elem.children.push(Node::Text(text));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_empty_element() {
        let e = parse_element("<current/>").unwrap();
        assert_eq!(e.name.local, "current");
        assert!(e.children.is_empty());
    }

    #[test]
    fn parses_attributes_with_both_quote_styles() {
        let e = parse_element("<DATA ref=\"#user.name\" optional='yes'/>").unwrap();
        assert_eq!(e.attr("ref"), Some("#user.name"));
        assert_eq!(e.attr("optional"), Some("yes"));
    }

    #[test]
    fn parses_nested_structure() {
        let e =
            parse_element("<POLICY><STATEMENT><PURPOSE><current/></PURPOSE></STATEMENT></POLICY>")
                .unwrap();
        assert_eq!(
            e.find_child("STATEMENT")
                .and_then(|s| s.find_child("PURPOSE"))
                .and_then(|p| p.find_child("current"))
                .map(|c| c.name.local.as_str()),
            Some("current")
        );
    }

    #[test]
    fn parses_prefixed_names() {
        let e = parse_element("<appel:RULE behavior=\"block\"/>").unwrap();
        assert_eq!(e.name, QName::prefixed("appel", "RULE"));
        assert_eq!(e.attr("behavior"), Some("block"));
    }

    #[test]
    fn parses_text_content_with_entities() {
        let e = parse_element("<CONSEQUENCE>books &amp; more &lt;stuff&gt;</CONSEQUENCE>").unwrap();
        assert_eq!(e.text(), "books & more <stuff>");
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let e = parse_element("<A>\n  <B/>\n  <C/>\n</A>").unwrap();
        assert_eq!(e.children.len(), 2);
    }

    #[test]
    fn cdata_becomes_text() {
        let e = parse_element("<X><![CDATA[a <raw> & b]]></X>").unwrap();
        assert_eq!(e.text(), "a <raw> & b");
    }

    #[test]
    fn comments_are_preserved() {
        let e = parse_element("<X><!-- note --><Y/></X>").unwrap();
        assert!(matches!(&e.children[0], Node::Comment(c) if c.contains("note")));
        assert_eq!(e.child_elements().count(), 1);
    }

    #[test]
    fn document_with_declaration_and_doctype() {
        let doc = parse_document(
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!DOCTYPE POLICY>\n<!-- preamble -->\n<POLICY/>\n",
        )
        .unwrap();
        assert!(doc.had_declaration);
        assert_eq!(doc.root.name.local, "POLICY");
    }

    #[test]
    fn rejects_mismatched_end_tag() {
        let err = parse_element("<A><B></A></B>").unwrap_err();
        assert!(err.message.contains("mismatched end tag"), "{err}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_document("<A/><B/>").is_err());
    }

    #[test]
    fn rejects_duplicate_attributes() {
        assert!(parse_element("<A x=\"1\" x=\"2\"/>").is_err());
    }

    #[test]
    fn rejects_unterminated_inputs() {
        for bad in [
            "<A",
            "<A>",
            "<A href=",
            "<A href=\"x",
            "<A><B/>",
            "<!-- x",
            "<A>&bad;</A>",
        ] {
            assert!(parse_element(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_malformed_names() {
        assert!(parse_element("<1abc/>").is_err());
        assert!(parse_element("<a:b:c/>").is_err());
    }

    #[test]
    fn error_positions_are_plausible() {
        let err = parse_element("<A>\n  <B>\n</A>").unwrap_err();
        assert!(err.position.line >= 2, "line was {}", err.position.line);
    }

    #[test]
    fn adjacent_text_and_cdata_merge() {
        let e = parse_element("<X>ab<![CDATA[cd]]>ef</X>").unwrap();
        assert_eq!(e.children.len(), 1);
        assert_eq!(e.text(), "abcdef");
    }

    #[test]
    fn mixed_content_keeps_order() {
        let e = parse_element("<X>pre<Y/>post</X>").unwrap();
        assert!(matches!(&e.children[0], Node::Text(t) if t == "pre"));
        assert!(matches!(&e.children[1], Node::Element(_)));
        assert!(matches!(&e.children[2], Node::Text(t) if t == "post"));
    }

    #[test]
    fn bom_is_skipped() {
        let e = parse_document("\u{feff}<A/>").unwrap();
        assert_eq!(e.root.name.local, "A");
    }
}
