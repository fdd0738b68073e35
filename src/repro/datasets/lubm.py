"""A LUBM-style university benchmark generator (Guo, Pan & Heflin 2005).

Reimplements the univ-bench data generator in Python: universities contain
departments; departments employ full/associate/assistant professors and
lecturers; students (graduate and undergraduate) are members of
departments, take the courses faculty teach, and graduate students have
advisors; faculty and graduate students write publications.  The entity
ratios follow the published generator's defaults, scaled down by the
``department`` range so laptop-scale graphs remain faithful in shape.

Scale knob: ``universities`` (LUBM's own scale factor) plus an optional
``departments`` override for small test graphs.  Deterministic by seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from ..rdf.graph import Graph
from ..rdf.namespace import RDF, Namespace
from ..rdf.terms import IRI, Literal
from ..rdf.triples import Triple
from .base import check_positive, load, pick_count

__all__ = ["UB", "LUBMConfig", "generate_lubm"]

#: The univ-bench vocabulary namespace.
UB = Namespace("http://swat.cse.lehigh.edu/onto/univ-bench.owl#")

_RESEARCH_AREAS = [f"Research{i}" for i in range(25)]

_FACULTY_RANKS = (
    ("FullProfessor", 7, 10),
    ("AssociateProfessor", 10, 14),
    ("AssistantProfessor", 8, 11),
    ("Lecturer", 5, 7),
)


@dataclass(frozen=True)
class LUBMConfig:
    """Generator parameters (defaults mirror UBA 1.7 ratios)."""

    universities: int = 1
    departments_min: int = 15
    departments_max: int = 25
    undergrad_per_faculty_min: int = 8
    undergrad_per_faculty_max: int = 14
    grad_per_faculty_min: int = 3
    grad_per_faculty_max: int = 4
    courses_per_faculty_min: int = 1
    courses_per_faculty_max: int = 2
    publications_min: int = 0
    publications_max: int = 5
    undergrad_courses_taken: tuple[int, int] = (2, 4)
    grad_courses_taken: tuple[int, int] = (1, 3)
    seed: int = 0

    def scaled(self, fraction: float) -> "LUBMConfig":
        """A smaller configuration with the same shape (for tests)."""
        def shrink(value: int) -> int:
            return max(1, round(value * fraction))

        return LUBMConfig(
            universities=self.universities,
            departments_min=shrink(self.departments_min),
            departments_max=shrink(self.departments_max),
            undergrad_per_faculty_min=shrink(self.undergrad_per_faculty_min),
            undergrad_per_faculty_max=shrink(self.undergrad_per_faculty_max),
            grad_per_faculty_min=max(1, shrink(self.grad_per_faculty_min)),
            grad_per_faculty_max=max(1, shrink(self.grad_per_faculty_max)),
            courses_per_faculty_min=self.courses_per_faculty_min,
            courses_per_faculty_max=self.courses_per_faculty_max,
            publications_min=self.publications_min,
            publications_max=shrink(self.publications_max),
            undergrad_courses_taken=self.undergrad_courses_taken,
            grad_courses_taken=self.grad_courses_taken,
            seed=self.seed,
        )


def generate_lubm(config: LUBMConfig | None = None,
                  graph: Graph | None = None) -> Graph:
    """Generate a LUBM-style graph (see module docstring)."""
    if config is None:
        config = LUBMConfig()
    check_positive("universities", config.universities)
    return load(_lubm_triples(config), graph)


def _lubm_triples(config: LUBMConfig) -> Iterator[Triple]:
    rng = random.Random(config.seed)
    for u in range(config.universities):
        university = IRI(f"http://www.university{u}.edu")
        yield Triple(university, RDF.type, UB.University)
        yield Triple(university, UB.name, Literal(f"University{u}"))
        n_departments = pick_count(rng, config.departments_min,
                                   config.departments_max)
        for d in range(n_departments):
            yield from _generate_department(rng, config, university, u, d)


def _generate_department(rng: random.Random, config: LUBMConfig,
                         university: IRI, u: int, d: int) -> Iterator[Triple]:
    base = f"http://www.department{d}.university{u}.edu"
    department = IRI(base)
    yield Triple(department, RDF.type, UB.Department)
    yield Triple(department, UB.name, Literal(f"Department{d}"))
    yield Triple(department, UB.subOrganizationOf, university)

    faculty: list[IRI] = []
    courses: list[IRI] = []
    grad_courses: list[IRI] = []
    course_counter = 0

    for rank, low, high in _FACULTY_RANKS:
        for i in range(pick_count(rng, low, high)):
            person = IRI(f"{base}/{rank}{i}")
            yield Triple(person, RDF.type, UB[rank])
            yield Triple(person, UB.name, Literal(f"{rank}{i}"))
            yield Triple(person, UB.worksFor, department)
            yield Triple(person, UB.emailAddress,
                         Literal(f"{rank}{i}@department{d}.university{u}.edu"))
            yield Triple(person, UB.researchInterest,
                         Literal(rng.choice(_RESEARCH_AREAS)))
            faculty.append(person)
            for _ in range(pick_count(rng, config.courses_per_faculty_min,
                                      config.courses_per_faculty_max)):
                course = IRI(f"{base}/Course{course_counter}")
                course_counter += 1
                yield Triple(course, RDF.type, UB.Course)
                yield Triple(course, UB.name,
                             Literal(f"Course{course_counter}"))
                yield Triple(person, UB.teacherOf, course)
                courses.append(course)
            graduate_course = IRI(f"{base}/GraduateCourse{course_counter}")
            course_counter += 1
            yield Triple(graduate_course, RDF.type, UB.GraduateCourse)
            yield Triple(graduate_course, UB.name,
                         Literal(f"GraduateCourse{course_counter}"))
            yield Triple(person, UB.teacherOf, graduate_course)
            grad_courses.append(graduate_course)
            for p in range(pick_count(rng, config.publications_min,
                                      config.publications_max)):
                publication = IRI(f"{base}/{rank}{i}/Publication{p}")
                yield Triple(publication, RDF.type, UB.Publication)
                yield Triple(publication, UB.publicationAuthor, person)

    n_faculty = len(faculty)
    n_undergrad = n_faculty * pick_count(
        rng, config.undergrad_per_faculty_min,
        config.undergrad_per_faculty_max)
    for i in range(n_undergrad):
        student = IRI(f"{base}/UndergraduateStudent{i}")
        yield Triple(student, RDF.type, UB.UndergraduateStudent)
        yield Triple(student, UB.name, Literal(f"UndergraduateStudent{i}"))
        yield Triple(student, UB.memberOf, department)
        low, high = config.undergrad_courses_taken
        for course in rng.sample(courses, min(pick_count(rng, low, high),
                                              len(courses))):
            yield Triple(student, UB.takesCourse, course)

    n_grad = n_faculty * pick_count(rng, config.grad_per_faculty_min,
                                    config.grad_per_faculty_max)
    for i in range(n_grad):
        student = IRI(f"{base}/GraduateStudent{i}")
        yield Triple(student, RDF.type, UB.GraduateStudent)
        yield Triple(student, UB.name, Literal(f"GraduateStudent{i}"))
        yield Triple(student, UB.memberOf, department)
        yield Triple(student, UB.advisor, rng.choice(faculty))
        alma_mater = rng.randrange(max(u, 1) + 2)
        yield Triple(student, UB.undergraduateDegreeFrom,
                     IRI(f"http://www.university{alma_mater}.edu"))
        low, high = config.grad_courses_taken
        for course in rng.sample(grad_courses,
                                 min(pick_count(rng, low, high),
                                     len(grad_courses))):
            yield Triple(student, UB.takesCourse, course)
        if rng.random() < 0.2:
            publication = IRI(f"{base}/GraduateStudent{i}/Publication0")
            yield Triple(publication, RDF.type, UB.Publication)
            yield Triple(publication, UB.publicationAuthor, student)
