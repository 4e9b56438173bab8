#include "bio/fasta.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace psc::bio {

namespace {

// Reads one line, accepting any of the conventions FASTA files arrive
// in: '\n' (Unix), "\r\n" (Windows) and lone '\r' (classic Mac). A final
// record without a trailing newline is returned as an ordinary line.
// Returns false only at end of stream with nothing consumed.
bool read_line(std::istream& in, std::string& line) {
  line.clear();
  std::streambuf* buf = in.rdbuf();
  if (buf == nullptr || !in.good()) return false;
  for (;;) {
    const int c = buf->sbumpc();
    if (c == std::char_traits<char>::eof()) {
      in.setstate(std::ios::eofbit);
      return !line.empty();
    }
    if (c == '\n') return true;
    if (c == '\r') {
      if (buf->sgetc() == '\n') buf->sbumpc();
      return true;
    }
    line.push_back(static_cast<char>(c));
  }
}

std::string header_token(const std::string& line) {
  std::size_t begin = 1;  // skip '>'
  while (begin < line.size() && std::isspace(static_cast<unsigned char>(line[begin]))) {
    ++begin;
  }
  std::size_t end = begin;
  while (end < line.size() && !std::isspace(static_cast<unsigned char>(line[end]))) {
    ++end;
  }
  return line.substr(begin, end - begin);
}
}  // namespace

SequenceBank read_fasta(std::istream& in, SequenceKind kind) {
  SequenceBank bank(kind);
  std::string id;
  std::string letters;
  bool have_record = false;

  auto flush = [&] {
    if (!have_record) return;
    bank.add(kind == SequenceKind::kProtein
                 ? Sequence::protein_from_letters(id, letters)
                 : Sequence::dna_from_letters(id, letters));
    letters.clear();
  };

  std::string line;
  while (read_line(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '>') {
      flush();
      id = header_token(line);
      have_record = true;
    } else if (line[0] == ';') {
      continue;  // legacy comment line
    } else {
      if (!have_record) {
        throw std::runtime_error("FASTA: residue data before first header");
      }
      letters += line;
    }
  }
  flush();
  return bank;
}

SequenceBank read_fasta_file(const std::string& path, SequenceKind kind) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open FASTA file: " + path);
  return read_fasta(in, kind);
}

void write_fasta(std::ostream& out, const SequenceBank& bank,
                 std::size_t width) {
  if (width == 0) width = 70;
  for (const SequenceView seq : bank) {
    out << '>' << seq.id() << '\n';
    const std::string letters = seq.to_letters();
    for (std::size_t pos = 0; pos < letters.size(); pos += width) {
      out << letters.substr(pos, width) << '\n';
    }
    if (letters.empty()) out << '\n';
  }
}

void write_fasta_file(const std::string& path, const SequenceBank& bank,
                      std::size_t width) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot create FASTA file: " + path);
  write_fasta(out, bank, width);
}

}  // namespace psc::bio
