#!/usr/bin/env bash
# Knob census: for every direct data member of a `Config` or `*Config`
# struct declared in a src/ header, list the files outside tests/ and
# examples/ that set it, then print the totals. A member nothing outside
# the tests sets is a candidate to become a named constant.
#
#   tools/knob_census.sh           per-member lines, then the totals line
#   tools/knob_census.sh --totals  the totals line only
#
# "Sets" means a designated initializer or assignment (`.name =`,
# `.name{`), a write to one of its sub-fields (`.name.x.y =`) or a
# container fill (`.name.push_back(`). Members are matched by name, so a
# name that two structs share counts as set for both. Nested structs
# (Slurmctld::Config::Fidelity, ...) count as the one member that holds
# them. Informational: exits 0 whatever it finds.
set -euo pipefail
cd "$(dirname "$0")/.."

totals_only=0
[[ "${1:-}" == "--totals" ]] && totals_only=1

# Setting sites: C++ sources outside tests/ and examples/.
mapfile -t sites < <(git ls-files -- '*.cpp' '*.hpp' '*.h' |
                     grep -v -e '^tests/' -e '^examples/')

# Emits "<header>\t<Owner::Config>\t<member>" for each direct member.
list_members() {
  local header
  for header in $(git ls-files -- 'src/*.hpp'); do
    awk -v file="$header" '
      function strip_templates(s) {
        while (gsub(/<[^<>]*>/, "", s)) {}
        return s
      }
      {
        line = $0
        sub(/\/\/.*/, "", line)               # comments hold no members
        if (match(line, /^(class|struct) [A-Za-z_][A-Za-z_0-9]*/) &&
            line !~ /;[ \t]*$/) {
          owner = substr(line, RSTART, RLENGTH)
          sub(/^(class|struct) /, "", owner)
        }
        if (!inside && match(line, /struct ([A-Za-z_]*Config|Config)[ \t]*\{/)) {
          name = substr(line, RSTART + 7, RLENGTH - 7)
          sub(/[ \t]*\{$/, "", name)
          label = (name == "Config") ? owner "::Config" : name
          inside = 1; level = 0
        }
        if (inside && level == 1 && stmt == "") {
          s = line
          gsub(/^[ \t]+/, "", s)
          if (s != "" && s !~ /^(struct|enum|using|static|friend|public|private|\[\[)/ &&
              s !~ /^\}/) {
            s = strip_templates(s)
            head = s
            sub(/[{=;].*/, "", head)
            if (head !~ /\(/ && match(head, /[A-Za-z_][A-Za-z_0-9]*[ \t]*$/)) {
              member = substr(head, RSTART, RLENGTH)
              gsub(/[ \t]/, "", member)
              print file "\t" label "\t" member
            }
          }
        }
        # Track brace depth through the line (strings hold no braces here).
        opens = gsub(/\{/, "{", line); closes = gsub(/\}/, "}", line)
        if (inside) {
          level += opens - closes
          if (level <= 0 && (opens || closes)) inside = 0
          # A member whose initializer spans lines ends with its ";".
          stmt = (level > 1 || (level == 1 && line !~ /[;{}][ \t]*$/ && line ~ /[^ \t]/)) ? "open" : ""
        }
      }' "$header"
  done
}

structs=0; members=0; set_outside=0; unset=0
prev_label=""
while IFS=$'\t' read -r header label member; do
  if [[ "$label" != "$prev_label" ]]; then
    structs=$((structs + 1))
    prev_label=$label
    (( totals_only )) || echo "${label}  (${header#src/})"
  fi
  members=$((members + 1))
  mapfile -t setters < <(grep -lE \
    "\.${member}(\.[A-Za-z_][A-Za-z_0-9]*)*([[:space:]]*(=[^=]|\{)|\.(push_back|emplace_back|insert|assign)\()" \
    "${sites[@]}" 2>/dev/null || true)
  if (( ${#setters[@]} > 0 )); then
    set_outside=$((set_outside + 1))
    (( totals_only )) || printf '  %-28s %s\n' "$member" "${setters[*]}"
  else
    unset=$((unset + 1))
    (( totals_only )) || printf '  %-28s -\n' "$member"
  fi
done < <(list_members)

echo "knob_census: ${members} direct Config members in ${structs} structs;" \
     "${set_outside} set outside tests/examples, ${unset} set only by" \
     "tests/examples or nothing"
