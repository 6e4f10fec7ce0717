//! Shared lexer for all four program dialects.
//!
//! COBOL-period lexical conventions:
//!
//! * identifiers may contain `-` and `#` (`EMP-NAME`, `D#`, `YEAR-OF-SERVICE`);
//!   a `-` glues into an identifier when immediately followed by a letter or
//!   digit, so **subtraction requires surrounding whitespace** (`A - B`);
//! * string literals use single quotes (`'SALES'`), doubled to escape
//!   (`'O''BRIEN'`);
//! * statements are terminated by `;` (the host dialects) or `.` (DBTG
//!   listings in the paper use periods; both are emitted as distinct
//!   tokens and each parser decides which it accepts);
//! * `*` at the start of a line begins a comment line (COBOL tradition).

use crate::error::{ParseError, ParseResult};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    /// `:=`
    Assign,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Plus,
    Minus,
    Star,
    Slash,
    LParen,
    RParen,
    Comma,
    Colon,
    Semi,
    Dot,
    Eof,
}

impl Tok {
    /// Human-readable form for error messages.
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier '{s}'"),
            Tok::Int(n) => format!("number {n}"),
            Tok::Str(s) => format!("string '{s}'"),
            Tok::Assign => "':='".into(),
            Tok::Eq => "'='".into(),
            Tok::Ne => "'<>'".into(),
            Tok::Lt => "'<'".into(),
            Tok::Le => "'<='".into(),
            Tok::Gt => "'>'".into(),
            Tok::Ge => "'>='".into(),
            Tok::Plus => "'+'".into(),
            Tok::Minus => "'-'".into(),
            Tok::Star => "'*'".into(),
            Tok::Slash => "'/'".into(),
            Tok::LParen => "'('".into(),
            Tok::RParen => "')'".into(),
            Tok::Comma => "','".into(),
            Tok::Colon => "':'".into(),
            Tok::Semi => "';'".into(),
            Tok::Dot => "'.'".into(),
            Tok::Eof => "end of input".into(),
        }
    }
}

/// A token stream with single-token lookahead and line tracking.
#[derive(Debug, Clone)]
pub struct TokenStream {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

impl TokenStream {
    /// Tokenize `src`.
    pub fn new(src: &str) -> ParseResult<TokenStream> {
        let mut toks = Vec::new();
        for (lineno, line) in src.lines().enumerate() {
            let line_no = lineno + 1;
            lex_line(line, line_no, &mut toks)?;
        }
        let last = src.lines().count().max(1);
        toks.push((Tok::Eof, last));
        Ok(TokenStream { toks, pos: 0 })
    }

    pub fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    /// Look two tokens ahead (needed for `R.F` vs statement-period and for
    /// `FIND v :=` forms).
    pub fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].0
    }

    pub fn line(&self) -> usize {
        self.toks[self.pos].1
    }

    #[allow(clippy::should_implement_trait)] // deliberate: parser-style API
    pub fn next(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    pub fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.line(), msg)
    }

    /// True if the current token is the identifier `kw` (case-insensitive).
    pub fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    /// Consume the identifier `kw` or fail.
    pub fn expect_kw(&mut self, kw: &str) -> ParseResult<()> {
        if self.at_kw(kw) {
            self.next();
            Ok(())
        } else {
            Err(self.err(format!("expected '{kw}', found {}", self.peek().describe())))
        }
    }

    /// Consume `kw` if present; report whether it was.
    pub fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.next();
            true
        } else {
            false
        }
    }

    pub fn expect(&mut self, t: Tok) -> ParseResult<()> {
        if self.peek() == &t {
            self.next();
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                t.describe(),
                self.peek().describe()
            )))
        }
    }

    /// Consume `t` if present; report whether it was.
    pub fn eat(&mut self, t: Tok) -> bool {
        if self.peek() == &t {
            self.next();
            true
        } else {
            false
        }
    }

    pub fn expect_ident(&mut self) -> ParseResult<String> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.next();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {}", other.describe()))),
        }
    }

    pub fn expect_str(&mut self) -> ParseResult<String> {
        match self.peek().clone() {
            Tok::Str(s) => {
                self.next();
                Ok(s)
            }
            other => Err(self.err(format!("expected string, found {}", other.describe()))),
        }
    }

    pub fn expect_int(&mut self) -> ParseResult<i64> {
        match self.peek().clone() {
            Tok::Int(n) => {
                self.next();
                Ok(n)
            }
            other => Err(self.err(format!("expected number, found {}", other.describe()))),
        }
    }

    pub fn at_eof(&self) -> bool {
        self.peek() == &Tok::Eof
    }
}

fn lex_line(line: &str, line_no: usize, toks: &mut Vec<(Tok, usize)>) -> ParseResult<()> {
    let bytes = line.as_bytes();
    let mut i = 0;
    // COBOL-style full-line comment.
    if line.trim_start().starts_with('*') {
        return Ok(());
    }
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c.is_ascii_alphabetic() {
            let start = i;
            while i < bytes.len() {
                let ch = bytes[i] as char;
                let hyphen_glue = ch == '-'
                    && i + 1 < bytes.len()
                    && (bytes[i + 1] as char).is_ascii_alphanumeric();
                if ch.is_ascii_alphanumeric() || ch == '#' || hyphen_glue {
                    i += 1;
                } else {
                    break;
                }
            }
            toks.push((Tok::Ident(line[start..i].to_string()), line_no));
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            let n: i64 = line[start..i]
                .parse()
                .map_err(|_| ParseError::new(line_no, "number out of range"))?;
            toks.push((Tok::Int(n), line_no));
            continue;
        }
        if c == '\'' {
            let mut s = String::new();
            i += 1;
            loop {
                if i >= bytes.len() {
                    return Err(ParseError::new(line_no, "unterminated string literal"));
                }
                let ch = bytes[i] as char;
                if ch == '\'' {
                    if i + 1 < bytes.len() && bytes[i + 1] as char == '\'' {
                        s.push('\'');
                        i += 2;
                    } else {
                        i += 1;
                        break;
                    }
                } else {
                    s.push(ch);
                    i += 1;
                }
            }
            toks.push((Tok::Str(s), line_no));
            continue;
        }
        let two = if i + 1 < bytes.len() {
            &line[i..i + 2]
        } else {
            ""
        };
        let (tok, width) = match two {
            ":=" => (Tok::Assign, 2),
            "<>" => (Tok::Ne, 2),
            "<=" => (Tok::Le, 2),
            ">=" => (Tok::Ge, 2),
            _ => match c {
                '=' => (Tok::Eq, 1),
                '<' => (Tok::Lt, 1),
                '>' => (Tok::Gt, 1),
                '+' => (Tok::Plus, 1),
                '-' => (Tok::Minus, 1),
                '*' => (Tok::Star, 1),
                '/' => (Tok::Slash, 1),
                '(' => (Tok::LParen, 1),
                ')' => (Tok::RParen, 1),
                ',' => (Tok::Comma, 1),
                ':' => (Tok::Colon, 1),
                ';' => (Tok::Semi, 1),
                '.' => (Tok::Dot, 1),
                _ => {
                    return Err(ParseError::new(
                        line_no,
                        format!("unexpected character '{c}'"),
                    ))
                }
            },
        };
        toks.push((tok, line_no));
        i += width;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        let mut ts = TokenStream::new(src).unwrap();
        let mut out = Vec::new();
        loop {
            let t = ts.next();
            if t == Tok::Eof {
                break;
            }
            out.push(t);
        }
        out
    }

    #[test]
    fn hyphenated_identifiers() {
        assert_eq!(
            toks("EMP-NAME YEAR-OF-SERVICE D#"),
            vec![
                Tok::Ident("EMP-NAME".into()),
                Tok::Ident("YEAR-OF-SERVICE".into()),
                Tok::Ident("D#".into()),
            ]
        );
    }

    #[test]
    fn subtraction_needs_spaces() {
        assert_eq!(
            toks("AGE - 30"),
            vec![Tok::Ident("AGE".into()), Tok::Minus, Tok::Int(30)]
        );
        // Glued form is one identifier (by design).
        assert_eq!(toks("AGE-30"), vec![Tok::Ident("AGE-30".into())]);
    }

    #[test]
    fn string_literals_with_escape() {
        assert_eq!(
            toks("'SALES' 'O''BRIEN'"),
            vec![Tok::Str("SALES".into()), Tok::Str("O'BRIEN".into())]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks(":= <> <= >= < > ="),
            vec![
                Tok::Assign,
                Tok::Ne,
                Tok::Le,
                Tok::Ge,
                Tok::Lt,
                Tok::Gt,
                Tok::Eq
            ]
        );
    }

    #[test]
    fn comment_lines_skipped() {
        assert_eq!(toks("* this is a comment\nX"), vec![Tok::Ident("X".into())]);
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(TokenStream::new("'oops").is_err());
    }

    #[test]
    fn peek2_lookahead() {
        let ts = TokenStream::new("A . B").unwrap();
        assert_eq!(ts.peek(), &Tok::Ident("A".into()));
        assert_eq!(ts.peek2(), &Tok::Dot);
    }

    #[test]
    fn keyword_matching_case_insensitive() {
        let mut ts = TokenStream::new("find Find FIND").unwrap();
        assert!(ts.at_kw("FIND"));
        ts.next();
        assert!(ts.at_kw("find"));
    }
}
