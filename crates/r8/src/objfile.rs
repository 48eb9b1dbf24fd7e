//! The object-code text format.
//!
//! The paper's flow (§4, Fig. 8) passes "the text file obtained after
//! the application simulation" from the R8 Simulator to the Serial
//! software. This module defines that interchange format: one 4-digit
//! uppercase hexadecimal word per line, `;` comments and blank lines
//! ignored, an optional `@xxxx` line setting the next load address
//! (addresses default to 0 and increment per word).
//!
//! ```text
//! ; vector sum object code
//! @0000
//! 5000
//! 8914
//! 9900
//! ```

use std::fmt;

use crate::program::Program;

/// A parse failure, with its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseObjError {
    /// 1-based line number.
    pub line: usize,
    /// The offending text.
    pub text: String,
    /// What is wrong with the line.
    pub kind: ParseObjErrorKind,
}

/// Why an object-text line was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseObjErrorKind {
    /// The line is neither a hex word nor an `@xxxx` marker.
    Syntax,
    /// A well-formed word would load past address `0xFFFF`.
    PastAddressSpace,
}

impl fmt::Display for ParseObjError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let problem = match self.kind {
            ParseObjErrorKind::Syntax => "is not a hex word or @addr",
            ParseObjErrorKind::PastAddressSpace => "would load past address 0xFFFF",
        };
        write!(f, "line {}: `{}` {problem}", self.line, self.text)
    }
}

impl std::error::Error for ParseObjError {}

/// Serializes a memory image to the object text format, sixteen words
/// per `@` block line group for readability.
pub fn to_text(words: &[u16]) -> String {
    let mut out = String::from("; R8 object code\n@0000\n");
    for word in words {
        out.push_str(&format!("{word:04X}\n"));
    }
    out
}

/// Convenience: serializes an assembled [`Program`].
pub fn program_to_text(program: &Program) -> String {
    to_text(program.words())
}

/// Parses object text back into a flat image starting at address 0
/// (gaps introduced by `@` lines are zero-filled).
///
/// # Errors
///
/// [`ParseObjError`] on any line that is neither a comment, a blank, a
/// 1–4 digit hex word, nor an `@xxxx` address marker, and on a word
/// that would land past the 64K-word address space.
pub fn from_text(text: &str) -> Result<Vec<u16>, ParseObjError> {
    let mut image: Vec<u16> = Vec::new();
    let mut cursor = 0usize;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.split(';').next().unwrap_or("").trim();
        if trimmed.is_empty() {
            continue;
        }
        let error = |kind| ParseObjError {
            line,
            text: trimmed.to_string(),
            kind,
        };
        if let Some(addr) = trimmed.strip_prefix('@') {
            cursor = usize::from(
                u16::from_str_radix(addr, 16).map_err(|_| error(ParseObjErrorKind::Syntax))?,
            );
            continue;
        }
        let word =
            u16::from_str_radix(trimmed, 16).map_err(|_| error(ParseObjErrorKind::Syntax))?;
        if cursor > usize::from(u16::MAX) {
            return Err(error(ParseObjErrorKind::PastAddressSpace));
        }
        if cursor >= image.len() {
            image.resize(cursor + 1, 0);
        }
        image[cursor] = word;
        cursor += 1;
    }
    Ok(image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn round_trip() {
        let program = assemble("LIW R1, 0xBEEF\nHALT").unwrap();
        let text = program_to_text(&program);
        let back = from_text(&text).unwrap();
        assert_eq!(back, program.words());
    }

    #[test]
    fn comments_blanks_and_case() {
        let image = from_text("; header\n\n00ff\nABCD ; trailing\n").unwrap();
        assert_eq!(image, vec![0x00FF, 0xABCD]);
    }

    #[test]
    fn address_markers_create_gaps() {
        let image = from_text("@0002\n1111\n@0000\n2222\n").unwrap();
        assert_eq!(image, vec![0x2222, 0, 0x1111]);
    }

    #[test]
    fn bad_lines_are_rejected_with_position() {
        let e = from_text("1234\nwhat\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.text, "what");
        let e = from_text("@zz\n").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn words_past_the_address_space_are_rejected() {
        // The last address takes a word; the next one has nowhere to go
        // (it used to grow the image to 65,537 words).
        let e = from_text("@ffff\n1\n2\n").unwrap_err();
        assert_eq!((e.line, e.kind), (3, ParseObjErrorKind::PastAddressSpace));
        assert_eq!(e.to_string(), "line 3: `2` would load past address 0xFFFF");
        let image = from_text("@ffff\n1\n").unwrap();
        assert_eq!((image.len(), image[0xFFFF]), (0x1_0000, 1));
    }

    #[test]
    fn empty_input_is_an_empty_image() {
        assert_eq!(from_text("; nothing\n").unwrap(), Vec::<u16>::new());
    }
}
