//! The lexer and the scope pass under every xtask lint.
//!
//! [`lex`] splits Rust source into [`Token`]s: identifiers (keywords and
//! lifetimes too), punctuation, literals (numbers, chars, bytes, strings,
//! raw strings) and comments (line, doc, block), each with its text and
//! 1-based line. It never fails: an unterminated literal or comment runs
//! to the end of the input and a character no class takes is one
//! punctuation token, so the tokens and the whitespace between them
//! always rebuild the input byte for byte.
//!
//! [`Scan`] is the scope pass over the code tokens (comments set aside):
//! the brace depth before each token, whether it lies in a
//! `#[cfg(..test..)] mod`, where its statement starts, and the braces of
//! every `fn` body. [`Scan::annotation`] is the one waiver and annotation
//! lookup every lint uses.

use std::ops::Range;

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier, keyword, raw identifier or lifetime.
    Ident,
    /// One punctuation character, or one of the joined pairs (`::`, `=>`,
    /// `==`, `!=`, `<=`, `>=`, `->`, `..`).
    Punct,
    /// Number, char, byte, string, byte string or raw string literal.
    Lit,
    /// Line, doc or block comment.
    Comment,
}

/// One lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// Token class.
    pub kind: Kind,
    /// The token's source text.
    pub text: &'a str,
    /// 1-based line the token starts on.
    pub line: usize,
    /// Byte offset of the token in the source.
    pub start: usize,
}

const JOINED: &[&str] = &["::", "=>", "==", "!=", "<=", ">=", "->", ".."];

/// Splits `src` into tokens; ASCII whitespace is the only thing between
/// them.
pub fn lex(src: &str) -> Vec<Token<'_>> {
    let mut toks = Vec::new();
    let (mut i, mut line) = (0, 1);
    while let Some(c) = src[i..].chars().next() {
        if c.is_ascii_whitespace() {
            line += usize::from(c == '\n');
            i += 1;
            continue;
        }
        let (kind, end) = token_at(src, i, c);
        let text = &src[i..end];
        toks.push(Token {
            kind,
            text,
            line,
            start: i,
        });
        line += text.matches('\n').count();
        i = end;
    }
    toks
}

/// The class and end offset of the token starting with `c` at `i`.
fn token_at(src: &str, i: usize, c: char) -> (Kind, usize) {
    let b = src.as_bytes();
    let rest = &src[i..];
    if rest.starts_with("//") {
        return (Kind::Comment, rest.find('\n').map_or(src.len(), |n| i + n));
    }
    if rest.starts_with("/*") {
        return (Kind::Comment, block_comment_end(b, i + 2));
    }
    match c {
        '"' => (Kind::Lit, string_end(b, i + 1)),
        '\'' => match char_end(src, i) {
            Some(end) => (Kind::Lit, end),
            None if src[i + 1..].starts_with(ident_start) => (Kind::Ident, ident_end(src, i + 1)),
            None => (Kind::Punct, i + 1),
        },
        '0'..='9' => (Kind::Lit, number_end(b, i)),
        c if ident_start(c) => prefixed(src, i),
        _ if JOINED.iter().any(|j| rest.starts_with(j)) => (Kind::Punct, i + 2),
        _ => (Kind::Punct, i + c.len_utf8()),
    }
}

fn ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn ident_end(src: &str, i: usize) -> usize {
    src[i..]
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .map_or(src.len(), |n| i + n)
}

/// An identifier at `i`, or the literal its prefix opens (`b'x'`,
/// `b".."`, `c".."`, `r#".."#`, `br".."`, `cr".."`), or a raw
/// identifier (`r#name`).
fn prefixed(src: &str, i: usize) -> (Kind, usize) {
    let b = src.as_bytes();
    let end = ident_end(src, i);
    let word = &src[i..end];
    let lit = match (word, b.get(end)) {
        ("b", Some(b'\'')) => char_end(src, end),
        ("b" | "c", Some(b'"')) => Some(string_end(b, end + 1)),
        ("r" | "br" | "cr", Some(b'"' | b'#')) => raw_string_end(b, end),
        _ => None,
    };
    match lit {
        Some(e) => (Kind::Lit, e),
        None if word == "r" && b.get(end) == Some(&b'#') => (Kind::Ident, ident_end(src, end + 1)),
        None => (Kind::Ident, end),
    }
}

/// End of a string body that starts at `j`, just past its opening quote.
fn string_end(b: &[u8], mut j: usize) -> usize {
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    b.len()
}

/// End of a raw string whose `#`s start at `j`, or `None` when no `"`
/// follows them.
fn raw_string_end(b: &[u8], j: usize) -> Option<usize> {
    let hashes = b[j..].iter().take_while(|&&c| c == b'#').count();
    let open = j + hashes;
    if b.get(open) != Some(&b'"') {
        return None;
    }
    let closes = |k: &usize| {
        b[*k] == b'"'
            && b.get(k + 1..k + 1 + hashes)
                .is_some_and(|h| h.iter().all(|&c| c == b'#'))
    };
    Some(
        (open + 1..b.len())
            .find(closes)
            .map_or(b.len(), |k| k + 1 + hashes),
    )
}

/// End of a (nested) block comment whose body starts at `j`.
fn block_comment_end(b: &[u8], mut j: usize) -> usize {
    let mut depth = 1;
    while depth > 0 && j < b.len() {
        match &b[j..b.len().min(j + 2)] {
            b"*/" => (depth, j) = (depth - 1, j + 2),
            b"/*" => (depth, j) = (depth + 1, j + 2),
            _ => j += 1,
        }
    }
    j
}

/// End of the char literal whose opening quote is at `i`, or `None` when
/// the quote opens a lifetime or stands alone.
fn char_end(src: &str, i: usize) -> Option<usize> {
    let mut chars = src[i + 1..].chars();
    let body = match chars.next()? {
        '\\' => {
            let escaped = chars.next()?.len_utf8();
            let tail: usize = chars
                .take_while(|&c| c != '\'' && c != '\n')
                .map(char::len_utf8)
                .sum();
            1 + escaped + tail
        }
        '\'' | '\n' => return None,
        c => c.len_utf8(),
    };
    (src.as_bytes().get(i + 1 + body) == Some(&b'\'')).then_some(i + 2 + body)
}

/// End of the number literal starting at `j`: digits, suffix letters,
/// one fractional part and a signed exponent.
fn number_end(b: &[u8], mut j: usize) -> usize {
    let mut dot = false;
    while let Some(&c) = b.get(j) {
        let digit_next = b.get(j + 1).is_some_and(u8::is_ascii_digit);
        if c == b'.' && digit_next && !dot {
            dot = true;
        } else if !(c.is_ascii_alphanumeric()
            || c == b'_'
            || (matches!(c, b'+' | b'-') && digit_next && matches!(b[j - 1], b'e' | b'E')))
        {
            break;
        }
        j += 1;
    }
    j
}

// ---------------------------------------------------------------------
// Scope pass
// ---------------------------------------------------------------------

/// A code token with what the scope pass found out about it.
pub(crate) struct Code<'a> {
    pub kind: Kind,
    pub text: &'a str,
    pub line: usize,
    /// Brace depth before the token.
    pub depth: i32,
    /// Inside a `#[cfg(..test..)] mod`, from `mod` to its closing brace.
    pub test: bool,
    /// Index of the first token of the token's statement: the token
    /// after the last `;`, `{`, `}` or `,` before it.
    pub stmt: usize,
}

impl Code<'_> {
    /// Brace depth after the token.
    pub fn depth_after(&self) -> i32 {
        self.depth + i32::from(self.text == "{") - i32::from(self.text == "}")
    }
}

/// What starts on one source line.
#[derive(Default)]
struct Line<'a> {
    /// Text of the first token on the line, comments included ("" when
    /// none starts there).
    first: &'a str,
    /// The line's `//` comments.
    comments: Vec<&'a str>,
}

/// A `fn` with a body, as indices into [`Scan::code`].
pub(crate) struct FnBody {
    /// The `fn` keyword.
    pub kw: usize,
    /// The body's `{`.
    pub open: usize,
    /// The body's `}` (the token count when unclosed).
    pub close: usize,
}

/// A source file after the lexer and the scope pass.
pub(crate) struct Scan<'a> {
    /// Code tokens, in order.
    pub code: Vec<Code<'a>>,
    /// Indexed by line number; entry 0 is empty.
    lines: Vec<Line<'a>>,
    /// Every `fn` with a body, in source order.
    pub fns: Vec<FnBody>,
}

impl<'a> Scan<'a> {
    pub fn new(src: &'a str) -> Self {
        let toks = lex(src);
        let last_line = toks.last().map_or(0, |t| t.line);
        let mut lines: Vec<Line> = (0..=last_line).map(|_| Line::default()).collect();
        let mut code: Vec<Code> = Vec::with_capacity(toks.len());
        let (mut depth, mut stmt) = (0, 0);
        for t in &toks {
            let l = &mut lines[t.line];
            if l.first.is_empty() {
                l.first = t.text;
            }
            if t.kind == Kind::Comment {
                if t.text.starts_with("//") {
                    l.comments.push(t.text);
                }
                continue;
            }
            let c = Code {
                kind: t.kind,
                text: t.text,
                line: t.line,
                depth,
                test: false,
                stmt,
            };
            depth = c.depth_after();
            code.push(c);
            if matches!(t.text, ";" | "{" | "}" | ",") {
                stmt = code.len();
            }
        }
        let mut scan = Scan {
            code,
            lines,
            fns: Vec::new(),
        };
        for k in 0..scan.code.len() {
            if scan.code[k].text == "fn"
                && scan.code.get(k + 1).is_some_and(|t| t.kind == Kind::Ident)
            {
                if let Some(open) = scan.body_open(k + 2) {
                    let close = scan.close(open) - 1;
                    scan.fns.push(FnBody { kw: k, open, close });
                }
            }
            if let Some(span) = scan.test_mod_at(k) {
                scan.code[span].iter_mut().for_each(|c| c.test = true);
            }
        }
        scan
    }

    /// True when the code tokens from `at` read `pat`, one text each.
    pub fn reads(&self, at: usize, pat: &[&str]) -> bool {
        pat.iter()
            .enumerate()
            .all(|(k, p)| self.code.get(at + k).is_some_and(|t| t.text == *p))
    }

    /// Index just past the bracket that closes the `(`, `[` or `{` at
    /// `open` (the token count when none does).
    pub fn close(&self, open: usize) -> usize {
        let o = self.code[open].text;
        let c = match o {
            "(" => ")",
            "[" => "]",
            _ => "}",
        };
        let mut depth = 0;
        for (k, t) in self.code.iter().enumerate().skip(open) {
            depth += i32::from(t.text == o) - i32::from(t.text == c);
            if depth == 0 {
                return k + 1;
            }
        }
        self.code.len()
    }

    /// The `{` that opens the item whose signature continues at `k`, or
    /// `None` when a `;` ends it first (a declaration).
    fn body_open(&self, mut k: usize) -> Option<usize> {
        while let Some(t) = self.code.get(k) {
            match t.text {
                "{" => return Some(k),
                ";" => return None,
                "(" | "[" => k = self.close(k),
                _ => k += 1,
            }
        }
        None
    }

    /// The tokens of the `mod` a `#[cfg(..test..)]` at `k` gates, when
    /// one does (further attributes may sit between them).
    fn test_mod_at(&self, k: usize) -> Option<Range<usize>> {
        if !self.reads(k, &["#", "[", "cfg"]) {
            return None;
        }
        let mut j = self.close(k + 1);
        if !self.code[k + 3..j].iter().any(|t| t.text == "test") {
            return None;
        }
        while self.reads(j, &["#", "["]) {
            j = self.close(j + 1);
        }
        let start = j;
        j += usize::from(self.reads(j, &["pub"]));
        if !self.reads(j, &["mod"]) {
            return None;
        }
        let end = match self.body_open(j) {
            Some(open) => self.close(open),
            None => (j + 3).min(self.code.len()),
        };
        Some(start..end)
    }

    /// Lines that hold code, as ranges of [`Scan::code`].
    pub fn code_lines(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let mut end = 0;
        self.code.chunk_by(|a, b| a.line == b.line).map(move |l| {
            end += l.len();
            end - l.len()..end
        })
    }

    /// The text after `tag` in the annotation that covers token `at`: a
    /// `//` comment on the token's line, or in the contiguous
    /// comment/attribute block directly above that line or above the
    /// first line of the token's statement.
    pub fn annotation(&self, at: usize, tag: &str) -> Option<&'a str> {
        let t = &self.code[at];
        self.lines[t.line]
            .comments
            .iter()
            .chain(self.block_above(t.line))
            .chain(self.block_above(self.code[t.stmt].line))
            .find_map(|&c| c.find(tag).map(|p| c[p + tag.len()..].trim()))
    }

    /// The `//` comments of the comment/attribute block directly above
    /// `line`, nearest first.
    fn block_above(&self, line: usize) -> impl Iterator<Item = &&'a str> + '_ {
        self.lines[..line]
            .iter()
            .rev()
            .take_while(|l| l.first.starts_with("//") || l.first == "#")
            .filter(|l| l.first != "#")
            .flat_map(|l| &l.comments)
    }
}
