// Package lexer implements the MiniC scanner.
//
// The scanner is the first half of Mira's Input Processor (paper Sec. III-A):
// it turns source text into a token stream with precise line/column
// positions, and it recognizes "#pragma" directives so that user annotations
// (paper Sec. III-C4) survive into the AST.
package lexer

import (
	"fmt"
	"strings"

	"mira/internal/token"
)

// Error is a lexical error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans MiniC source text.
type Lexer struct {
	src    string
	off    int // byte offset of next rune
	line   int
	col    int
	errors []*Error
}

// New returns a Lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() []*Error { return l.errors }

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	l.errors = append(l.errors, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	if l.off >= len(l.src) {
		return 0
	}
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) pos() token.Pos { return token.Pos{Line: l.line, Col: l.col} }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

// skipSpace consumes whitespace and comments. It returns false when a
// comment is unterminated at EOF.
func (l *Lexer) skipSpace() {
	for {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.peek() != '\n' && l.peek() != 0 {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(start, "unterminated block comment")
			}
		case c == '\\' && (l.peek2() == '\n' || l.peek2() == '\r'):
			// Line continuation (used inside multi-line pragmas outside
			// directive context too).
			l.advance()
			l.advance()
		default:
			return
		}
	}
}

// Next returns the next token, stamped with its byte offsets.
func (l *Lexer) Next() token.Token {
	l.skipSpace()
	off := l.off
	t := l.scan()
	t.Off, t.End = off, l.off
	return t
}

func (l *Lexer) scan() token.Token {
	pos := l.pos()
	c := l.peek()
	switch {
	case c == 0:
		return token.Token{Kind: token.EOF, Pos: pos}
	case c == '#':
		return l.scanPragma(pos)
	case isIdentStart(c):
		return l.scanIdent(pos)
	case isDigit(c) || (c == '.' && isDigit(l.peek2())):
		return l.scanNumber(pos)
	case c == '"':
		return l.scanString(pos)
	case c == '\'':
		return l.scanChar(pos)
	}
	return l.scanOperator(pos)
}

// All scans the remaining input and returns every token including the
// trailing EOF token.
func (l *Lexer) All() []token.Token {
	// MiniC averages about three source bytes per token (bundled programs
	// and Table I rows), so one allocation usually holds every token.
	toks := make([]token.Token, 0, (len(l.src)-l.off)/3+1)
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}

func (l *Lexer) scanIdent(pos token.Pos) token.Token {
	start := l.off
	for isIdentCont(l.peek()) {
		l.advance()
	}
	lit := l.src[start:l.off]
	if kw, ok := token.Keywords[lit]; ok {
		return token.Token{Kind: kw, Lit: lit, Pos: pos}
	}
	return token.Token{Kind: token.IDENT, Lit: lit, Pos: pos}
}

func (l *Lexer) scanNumber(pos token.Pos) token.Token {
	start := l.off
	kind := token.INTLIT
	for isDigit(l.peek()) {
		l.advance()
	}
	if l.peek() == '.' {
		kind = token.FLOATLIT
		l.advance()
		for isDigit(l.peek()) {
			l.advance()
		}
	}
	if c := l.peek(); c == 'e' || c == 'E' {
		next := l.peek2()
		hasExp := isDigit(next)
		if (next == '+' || next == '-') && l.off+2 < len(l.src) && isDigit(l.src[l.off+2]) {
			hasExp = true
		}
		if hasExp {
			kind = token.FLOATLIT
			l.advance() // e
			if l.peek() == '+' || l.peek() == '-' {
				l.advance()
			}
			for isDigit(l.peek()) {
				l.advance()
			}
		}
	}
	// Accept and drop C suffixes (f, L, u, ll).
	lit := l.src[start:l.off]
	for {
		c := l.peek()
		if c == 'f' || c == 'F' {
			kind = token.FLOATLIT
			l.advance()
			continue
		}
		if c == 'l' || c == 'L' || c == 'u' || c == 'U' {
			l.advance()
			continue
		}
		break
	}
	return token.Token{Kind: kind, Lit: lit, Pos: pos}
}

func (l *Lexer) scanString(pos token.Pos) token.Token {
	l.advance() // opening quote
	var sb strings.Builder
	for {
		c := l.peek()
		if c == 0 || c == '\n' {
			l.errorf(pos, "unterminated string literal")
			break
		}
		l.advance()
		if c == '"' {
			break
		}
		if c == '\\' {
			esc := l.advance()
			switch esc {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '\\', '"', '\'':
				sb.WriteByte(esc)
			case '0':
				sb.WriteByte(0)
			default:
				l.errorf(pos, "unknown escape \\%c", esc)
			}
			continue
		}
		sb.WriteByte(c)
	}
	return token.Token{Kind: token.STRINGLIT, Lit: sb.String(), Pos: pos}
}

func (l *Lexer) scanChar(pos token.Pos) token.Token {
	l.advance() // opening quote
	var lit string
	c := l.advance()
	if c == '\\' {
		esc := l.advance()
		switch esc {
		case 'n':
			lit = "\n"
		case 't':
			lit = "\t"
		case '0':
			lit = string(byte(0))
		default:
			lit = string(esc)
		}
	} else {
		lit = string(c)
	}
	if l.peek() != '\'' {
		l.errorf(pos, "unterminated character literal")
	} else {
		l.advance()
	}
	return token.Token{Kind: token.CHARLIT, Lit: lit, Pos: pos}
}

// scanPragma consumes a "#pragma ..." (or any "#...") directive up to the
// end of the logical line, honoring backslash line continuations. The token
// literal is the directive body after "#".
func (l *Lexer) scanPragma(pos token.Pos) token.Token {
	l.advance() // '#'
	var sb strings.Builder
	for {
		c := l.peek()
		if c == 0 {
			break
		}
		if c == '\\' && (l.peek2() == '\n' || l.peek2() == '\r') {
			l.advance() // backslash
			for l.peek() == '\r' {
				l.advance()
			}
			if l.peek() == '\n' {
				l.advance()
			}
			sb.WriteByte(' ')
			continue
		}
		if c == '\n' {
			break
		}
		sb.WriteByte(c)
		l.advance()
	}
	body := strings.TrimSpace(sb.String())
	if !strings.HasPrefix(body, "pragma") {
		l.errorf(pos, "unsupported preprocessor directive %q", "#"+body)
		return token.Token{Kind: token.ILLEGAL, Lit: body, Pos: pos}
	}
	payload := strings.TrimSpace(strings.TrimPrefix(body, "pragma"))
	return token.Token{Kind: token.PRAGMA, Lit: payload, Pos: pos}
}

func (l *Lexer) scanOperator(pos token.Pos) token.Token {
	c := l.advance()
	two := func(next byte, k2, k1 token.Kind) token.Token {
		if l.peek() == next {
			l.advance()
			return token.Token{Kind: k2, Pos: pos}
		}
		return token.Token{Kind: k1, Pos: pos}
	}
	switch c {
	case '+':
		if l.peek() == '+' {
			l.advance()
			return token.Token{Kind: token.INC, Pos: pos}
		}
		return two('=', token.PLUSEQ, token.PLUS)
	case '-':
		if l.peek() == '-' {
			l.advance()
			return token.Token{Kind: token.DEC, Pos: pos}
		}
		if l.peek() == '>' {
			l.advance()
			return token.Token{Kind: token.ARROW, Pos: pos}
		}
		return two('=', token.MINUSEQ, token.MINUS)
	case '*':
		return two('=', token.STAREQ, token.STAR)
	case '/':
		return two('=', token.SLASHEQ, token.SLASH)
	case '%':
		return token.Token{Kind: token.PERCENT, Pos: pos}
	case '=':
		return two('=', token.EQ, token.ASSIGN)
	case '!':
		return two('=', token.NEQ, token.NOT)
	case '<':
		return two('=', token.LEQ, token.LT)
	case '>':
		return two('=', token.GEQ, token.GT)
	case '&':
		return two('&', token.ANDAND, token.AMP)
	case '|':
		if l.peek() == '|' {
			l.advance()
			return token.Token{Kind: token.OROR, Pos: pos}
		}
		l.errorf(pos, "unsupported operator '|'")
		return token.Token{Kind: token.ILLEGAL, Lit: "|", Pos: pos}
	case '(':
		return token.Token{Kind: token.LPAREN, Pos: pos}
	case ')':
		return token.Token{Kind: token.RPAREN, Pos: pos}
	case '{':
		return token.Token{Kind: token.LBRACE, Pos: pos}
	case '}':
		return token.Token{Kind: token.RBRACE, Pos: pos}
	case '[':
		return token.Token{Kind: token.LBRACKET, Pos: pos}
	case ']':
		return token.Token{Kind: token.RBRACKET, Pos: pos}
	case ',':
		return token.Token{Kind: token.COMMA, Pos: pos}
	case ';':
		return token.Token{Kind: token.SEMI, Pos: pos}
	case '.':
		return token.Token{Kind: token.DOT, Pos: pos}
	case '?':
		return token.Token{Kind: token.QUESTION, Pos: pos}
	case ':':
		return two(':', token.SCOPE, token.COLON)
	}
	l.errorf(pos, "unexpected character %q", string(c))
	return token.Token{Kind: token.ILLEGAL, Lit: string(c), Pos: pos}
}
