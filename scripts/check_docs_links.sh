#!/usr/bin/env bash
# Docs link checker: fails when a *relative* markdown link in README.md or
# docs/ points at a path that does not exist in the working tree. External
# (http/https/mailto) links and pure #anchors are skipped; anchors on
# relative links are stripped before the existence check. It also fails
# when a `*.md` document named in the code (comments and strings under
# src/ tests/ bench/ examples/ tools/) exists neither in the repository root
# nor in docs/. Run from anywhere; CI runs it as the `docs` job.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
checked=0
while IFS= read -r -d '' f; do
  dir=$(dirname "$f")
  # Markdown inline links: capture the (target) part of [text](target).
  while IFS= read -r target; do
    [[ -z "$target" ]] && continue
    case "$target" in
      http://* | https://* | mailto:* | '#'*) continue ;;
    esac
    path="${target%%#*}"
    [[ -z "$path" ]] && continue
    checked=$((checked + 1))
    if [[ ! -e "$dir/$path" ]]; then
      echo "BROKEN LINK: $f -> $target" >&2
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$f" | sed -E 's/^\]\(//; s/\)$//')
done < <(find docs README.md -name '*.md' -print0)

# Documents cited by name in the code: "docs/X.md" and bare "X.md" alike
# must resolve to X.md at the root or under docs/.
cited=0
while IFS=: read -r f name; do
  cited=$((cited + 1))
  base=$(basename "$name")
  if [[ ! -e "$base" && ! -e "docs/$base" ]]; then
    echo "DANGLING DOC CITATION: $f -> $name" >&2
    fail=1
  fi
done < <(grep -rHoE '[A-Za-z0-9_./-]*[A-Za-z0-9_-]+\.md\b' \
           src tests bench examples tools || true)

if [[ "$fail" -ne 0 ]]; then
  echo "docs link check FAILED" >&2
  exit 1
fi
echo "docs link check OK ($checked relative links, $cited code citations" \
  "verified)"
