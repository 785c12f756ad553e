package sql

import (
	"math/rand"
	"strings"
	"testing"
)

// TestParseNeverPanics drives the SQL parser with random token soup: it
// must return a statement or an error, never panic.
func TestParseNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(137))
	words := []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT", "AND",
		"OR", "NOT", "IN", "BETWEEN", "LIKE", "JOIN", "ON", "AS", "SUM",
		"COUNT", "t", "a", "b", "*", ",", "(", ")", "=", "<", ">", "<>",
		"<=", ">=", "+", "-", "/", "'s'", "1", "2.5", ".", ";", "--c",
	}
	for i := 0; i < 5000; i++ {
		n := 1 + r.Intn(16)
		parts := make([]string, n)
		for j := range parts {
			parts[j] = words[r.Intn(len(words))]
		}
		_, _ = Parse(strings.Join(parts, " "))
	}
}

// TestPlanNeverPanicsOnParsedQueries: anything the parser accepts must plan
// or fail cleanly against a real catalog.
func TestPlanNeverPanicsOnParsedQueries(t *testing.T) {
	r := rand.New(rand.NewSource(139))
	cat := testCatalog()
	words := []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT",
		"AND", "OR", "SUM", "COUNT", "MIN",
		"Cust", "Calls", "Plans", "ID", "Zip", "Plan", "Mo", "Dur", "Price",
		"*", ",", "(", ")", "=", "<", ">", "+", "-", "'10001'", "1", "3",
	}
	planned := 0
	for i := 0; i < 8000; i++ {
		n := 2 + r.Intn(14)
		parts := make([]string, n)
		for j := range parts {
			parts[j] = words[r.Intn(len(words))]
		}
		stmt, err := Parse(strings.Join(parts, " "))
		if err != nil {
			continue
		}
		if _, err := Plan(stmt, cat); err == nil {
			planned++
		}
	}
	if planned == 0 {
		t.Log("note: no random statement planned successfully (acceptable, parser is strict)")
	}
}

// FuzzParsePlan is the native-fuzzing entry point behind CI's fuzz-smoke
// step: any input must lex and parse without panicking, and anything that
// parses must plan (or fail cleanly) against a real catalog.
func FuzzParsePlan(f *testing.F) {
	f.Add("SELECT a FROM t")
	f.Add(revenueQuery)
	f.Add("SELECT * FROM Cust WHERE ID BETWEEN 1 AND 5 OR Plan LIKE 'S%'")
	f.Add("SELECT Zip, COUNT(*) AS n FROM Cust GROUP BY Zip HAVING COUNT(*) > 1 ORDER BY n DESC LIMIT 2")
	f.Add("SELECT CASE WHEN ID > 3 THEN 'hi' ELSE 'lo' END FROM Cust")
	cat := testCatalog()
	f.Fuzz(func(t *testing.T, query string) {
		stmt, err := Parse(query)
		if err != nil {
			return
		}
		_, _ = Plan(stmt, cat)
	})
}
