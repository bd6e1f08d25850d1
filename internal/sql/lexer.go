// Package sql implements the small SQL dialect the paper's API sketch uses
// to configure ephemeral variables (Fig. 3: configure(the_table, QUERY)):
//
//	SELECT <columns and aggregates> FROM <table> [AS OF <timestamp>]
//	  [JOIN <table> ON <col> = <col>]*
//	  [WHERE <col op literal> [AND ...]] [GROUP BY <columns>]
//	  [ORDER BY <column or ordinal> [ASC|DESC] [, ...]] [LIMIT <n>]
//
// Aggregates are COUNT(*), SUM/AVG/MIN/MAX over +,-,* arithmetic of numeric
// columns; ORDER BY and LIMIT apply to grouped output only. AS OF reads an
// MVCC table at a snapshot timestamp, in single-table statements only.
// Column references may be qualified ("table.column") and must be when a
// bare name is ambiguous across joined tables. The planner lowers a parsed
// statement onto the physical plan IR (internal/plan), from which the
// engines derive the data geometry they ask the fabric for.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol // ( ) , * + - and comparison operators
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased; idents lower-cased; others verbatim
	pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true,
	"GROUP": true, "BY": true, "COUNT": true, "SUM": true,
	"AVG": true, "MIN": true, "MAX": true, "DATE": true,
	"BETWEEN": true, "AS": true, "ORDER": true, "LIMIT": true,
	"ASC": true, "DESC": true, "JOIN": true, "ON": true, "OF": true,
}

// lex splits the input into tokens.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(input) {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '\'':
			j := strings.IndexByte(input[i+1:], '\'')
			if j < 0 {
				return nil, fmt.Errorf("sql: unterminated string at offset %d", i)
			}
			toks = append(toks, token{tokString, input[i+1 : i+1+j], i})
			i += j + 2
		case unicode.IsDigit(c) || (c == '.' && i+1 < len(input) && unicode.IsDigit(rune(input[i+1]))):
			j := i
			for j < len(input) && (unicode.IsDigit(rune(input[j])) || input[j] == '.') {
				j++
			}
			toks = append(toks, token{tokNumber, input[i:j], i})
			i = j
		case unicode.IsLetter(c) || c == '_':
			j := i
			for j < len(input) && (unicode.IsLetter(rune(input[j])) || unicode.IsDigit(rune(input[j])) || input[j] == '_') {
				j++
			}
			word := input[i:j]
			if up := strings.ToUpper(word); keywords[up] {
				toks = append(toks, token{tokKeyword, up, i})
			} else {
				toks = append(toks, token{tokIdent, strings.ToLower(word), i})
			}
			i = j
		case strings.ContainsRune("(),*+-.", c):
			toks = append(toks, token{tokSymbol, string(c), i})
			i++
		case c == '<' || c == '>' || c == '=':
			op := string(c)
			if i+1 < len(input) && (input[i+1] == '=' || (c == '<' && input[i+1] == '>')) {
				op += string(input[i+1])
			}
			toks = append(toks, token{tokSymbol, op, i})
			i += len(op)
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", len(input)})
	return toks, nil
}
